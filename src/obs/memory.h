// Process memory sampling for the observability layer (DESIGN.md §13).
//
// Large-cohort simulations are memory-bound before they are compute-bound:
// the scaling work (zero-copy shards, sparse error slabs) is only provable
// with numbers, so this header gives the repo one cheap, dependency-free
// way to read them. Linux first (/proc/self/status VmHWM/VmRSS +
// glibc mallinfo2 for live heap), getrusage as the portable fallback for
// the peak; fields the platform cannot report stay 0 rather than lying.
#pragma once

#include <cstdint>

namespace fedsu::obs {

struct MemoryStats {
  // High-water mark of the resident set (VmHWM / ru_maxrss). Monotone over
  // the process lifetime — per-phase deltas need current_rss/heap_live.
  std::uint64_t peak_rss_bytes = 0;
  // Resident set right now (VmRSS). 0 when /proc is unavailable.
  std::uint64_t current_rss_bytes = 0;
  // Bytes live on the malloc heap right now (mallinfo2 uordblks). 0 when
  // not built against glibc >= 2.33. Unlike RSS this goes DOWN when state
  // is freed, so it is the honest gauge for "what does this phase hold".
  std::uint64_t heap_live_bytes = 0;
};

// Samples the current process. Never throws; unsupported fields are 0.
MemoryStats sample_memory();

}  // namespace fedsu::obs

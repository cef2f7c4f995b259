// Observability level gate (DESIGN.md §8 "Observability").
//
// Every instrumentation point in the runtime — scoped spans and the wall
// phases they fill — is guarded by a single process-wide level so the
// disabled fast path is one relaxed atomic load and a predictable branch:
// no allocation, no locks, no clock reads. Raising the level never changes
// simulation results (instrumentation only observes; see the determinism
// contract in DESIGN.md §5b).
#pragma once

#include <string>

namespace fedsu::obs {

enum class Level : int {
  kOff = 0,      // no instrumentation work at all (the default)
  kMetrics = 1,  // spans time fl::RoundRecord::wall; no trace events
  kTrace = 2,    // kMetrics plus scoped-span timeline recording
};

// Current process-wide level (relaxed atomic load).
Level level();
void set_level(Level level);

// Parses "off" | "metrics" | "trace" (numeric "0" | "1" | "2" also
// accepted); throws std::invalid_argument on anything else so flag typos
// fail loudly.
Level parse_level(const std::string& text);
const char* level_name(Level level);

}  // namespace fedsu::obs

// Scoped-span tracer: OBS_SPAN("layer.component.phase") records a begin/end
// interval on the calling thread (DESIGN.md §8 "Observability").
//
//   void FedSuManager::synchronize(...) {
//     OBS_SPAN("core.fedsu.sync");
//     ...
//   }
//
// Fast path: when obs::trace_enabled() is false the span constructor is a
// relaxed atomic load and a branch — no clock read, no allocation. When
// enabled, events append to a per-thread buffer (one uncontended mutex lock
// per event, taken only against snapshot readers); span names must be
// string literals (the tracer stores the pointer, never copies).
//
// Exports:
//   * write_chrome_json() — a chrome://tracing / Perfetto "traceEvents"
//     timeline with per-thread attribution (thread-pool workers register
//     names via set_current_thread_name);
//   * aggregate() — per-span-name total wall time and call counts,
//     replacing bespoke Stopwatch bookkeeping in benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace fedsu::obs {

struct SpanEvent {
  const char* name = nullptr;  // static string supplied to OBS_SPAN
  std::uint32_t tid = 0;       // tracer-assigned dense thread id
  std::int32_t depth = 0;      // nesting depth within the thread (0 = root)
  std::int64_t begin_ns = 0;   // steady-clock, process-relative
  std::int64_t end_ns = 0;
};

struct PhaseTotal {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;  // summed span durations (nested spans overlap)
};

class Tracer {
 public:
  // Current steady-clock time relative to tracer epoch, in nanoseconds.
  static std::int64_t now_ns();

  // Appends one completed span for the calling thread.
  void record(const char* name, std::int64_t begin_ns, std::int64_t end_ns);

  // Names the calling thread in timeline exports (e.g. "util.pool.worker-1").
  // Safe to call at any level; cheap enough for thread start-up paths.
  void set_current_thread_name(const std::string& name);

  // All recorded events, merged across threads, ordered by begin time.
  std::vector<SpanEvent> snapshot() const;

  // Drops recorded events (thread registrations and names survive).
  void reset();

  // Events dropped because a thread buffer hit its cap (kMaxEventsPerThread).
  std::uint64_t dropped() const;

  // Per-name aggregation of the current events, sorted by total time desc.
  std::vector<PhaseTotal> aggregate() const;

  // chrome://tracing "traceEvents" JSON (complete "X" events in
  // microseconds plus thread_name metadata). Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;
  std::string chrome_json() const;

  static Tracer& global();

  // Per-thread buffers are capped so a forgotten long trace run cannot
  // exhaust memory; overflow is counted, not fatal.
  static constexpr std::size_t kMaxEventsPerThread = 1 << 20;

  // Implementation detail, defined in trace.cpp; public only so the
  // file-local registry there can own the buffers.
  struct ThreadBuffer;

 private:
  ThreadBuffer& buffer_for_current_thread();
};

namespace internal {

// RAII span. Captures the enabled decision at construction so toggling the
// level mid-span cannot produce a torn event.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t begin_ns_;
  bool active_;
};

}  // namespace internal

#define FEDSU_OBS_CONCAT_INNER(a, b) a##b
#define FEDSU_OBS_CONCAT(a, b) FEDSU_OBS_CONCAT_INNER(a, b)
// `name` must be a string literal (or otherwise outlive the tracer).
#define OBS_SPAN(name) \
  ::fedsu::obs::internal::ScopedSpan FEDSU_OBS_CONCAT(obs_span_, __LINE__)(name)

}  // namespace fedsu::obs

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/json.h"
#include "obs/obs.h"

namespace fedsu::obs {

struct Tracer::ThreadBuffer {
  std::mutex mutex;  // guards events/dropped against snapshot readers
  std::vector<SpanEvent> events;
  std::string name;
  std::uint32_t tid = 0;
};

namespace {

struct TracerState {
  std::mutex registry_mutex;
  // Buffers are created once per thread and intentionally never destroyed
  // (bounded by the number of distinct threads): exporting after a pool shut
  // down, or a worker exiting mid-snapshot, can never touch freed memory.
  std::vector<std::unique_ptr<Tracer::ThreadBuffer>> buffers;
};

TracerState& state() {
  static TracerState* s = new TracerState();
  return *s;
}

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point e =
      std::chrono::steady_clock::now();
  return e;
}

thread_local Tracer::ThreadBuffer* tl_buffer = nullptr;
thread_local int tl_depth = 0;

std::atomic<std::uint64_t> g_dropped{0};

}  // namespace

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

Tracer::ThreadBuffer& Tracer::buffer_for_current_thread() {
  if (tl_buffer) return *tl_buffer;
  TracerState& s = state();
  std::lock_guard<std::mutex> lock(s.registry_mutex);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(s.buffers.size());
  buffer->name = "thread-" + std::to_string(buffer->tid);
  tl_buffer = buffer.get();
  s.buffers.push_back(std::move(buffer));
  return *tl_buffer;
}

void Tracer::record(const char* name, std::int64_t begin_ns,
                    std::int64_t end_ns) {
  ThreadBuffer& buffer = buffer_for_current_thread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    // Cap reached: tally the drop so exports can warn instead of silently
    // truncating history.
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(
      SpanEvent{name, buffer.tid, tl_depth, begin_ns, end_ns});
}

void Tracer::set_current_thread_name(const std::string& name) {
  ThreadBuffer& buffer = buffer_for_current_thread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.name = name;
}

std::vector<SpanEvent> Tracer::snapshot() const {
  TracerState& s = state();
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> registry_lock(s.registry_mutex);
  for (const auto& buffer : s.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                    : a.tid < b.tid;
  });
  return out;
}

void Tracer::reset() {
  TracerState& s = state();
  std::lock_guard<std::mutex> registry_lock(s.registry_mutex);
  for (const auto& buffer : s.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

std::vector<PhaseTotal> Tracer::aggregate() const {
  std::map<std::string, PhaseTotal> by_name;
  for (const SpanEvent& e : snapshot()) {
    PhaseTotal& total = by_name[e.name];
    total.name = e.name;
    ++total.count;
    total.total_ms += static_cast<double>(e.end_ns - e.begin_ns) * 1e-6;
  }
  std::vector<PhaseTotal> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) out.push_back(std::move(total));
  std::sort(out.begin(), out.end(), [](const PhaseTotal& a, const PhaseTotal& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::string Tracer::chrome_json() const {
  // chrome://tracing "JSON Object Format": complete ("X") events with
  // microsecond timestamps, plus thread_name metadata rows so pool workers
  // show up attributed in the timeline UI.
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  {
    TracerState& s = state();
    std::lock_guard<std::mutex> registry_lock(s.registry_mutex);
    for (const auto& buffer : s.buffers) {
      std::lock_guard<std::mutex> lock(buffer->mutex);
      out += first ? "" : ",\n";
      first = false;
      out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " +
             std::to_string(buffer->tid) + ", \"args\": {\"name\": " +
             json_quote(buffer->name) + "}}";
    }
  }
  for (const SpanEvent& e : snapshot()) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": " + json_quote(e.name) +
           ", \"ph\": \"X\", \"pid\": 0, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + json_number(static_cast<double>(e.begin_ns) * 1e-3) +
           ", \"dur\": " +
           json_number(static_cast<double>(e.end_ns - e.begin_ns) * 1e-3) +
           ", \"args\": {\"depth\": " + std::to_string(e.depth) + "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": " +
         std::to_string(dropped()) + "}}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer: cannot open " + path);
  out << chrome_json();
  if (!out.flush()) throw std::runtime_error("Tracer: write failed for " + path);
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

namespace internal {

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), begin_ns_(0), active_(trace_enabled()) {
  if (active_) {
    begin_ns_ = Tracer::now_ns();
    ++tl_depth;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t end_ns = Tracer::now_ns();
  --tl_depth;
  Tracer::global().record(name_, begin_ns_, end_ns);
}

}  // namespace internal

}  // namespace fedsu::obs

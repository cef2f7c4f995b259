// Thread-safe metrics registry: named counters, gauges, and fixed-bucket /
// log-scale histograms (DESIGN.md §8 "Observability").
//
// Naming scheme: `layer.component.metric` (e.g. `fl.round.bytes_up`,
// `core.fedsu.promotions`). Registration takes a mutex once per metric name;
// after that every increment is a handful of relaxed/acq-rel atomic ops on
// per-metric storage — no locks, no allocation — so instrumented hot loops
// stay safe to run from thread-pool workers. Metric objects live for the
// registry's lifetime (node-based storage), so cached pointers never dangle.
//
// Increments are expected to be gated on obs::metrics_enabled() at the call
// site; the registry itself never checks the level.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace fedsu::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  enum class Scale { kLinear, kLog };
  Scale scale = Scale::kLinear;
  // Linear: `buckets` equal-width buckets over [lo, hi). Log: `buckets`
  // geometric buckets over [lo, hi) (lo must be > 0). Values below lo land
  // in the underflow bin, values >= hi in the overflow bin.
  double lo = 0.0;
  double hi = 1.0;
  int buckets = 20;
};

struct HistogramSnapshot {
  HistogramOptions options;
  // bounds[i] is the inclusive lower edge of bucket i; bucket i covers
  // [bounds[i], bounds[i+1]) with bounds[buckets] == hi.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // size == options.buckets
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;  // total observations including under/overflow
  double sum = 0.0;
};

class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  void record(double value);
  HistogramSnapshot snapshot() const;

  // Exposed for tests: the bucket a value would land in (-1 underflow,
  // buckets overflow).
  int bucket_index(double value) const;

 private:
  HistogramOptions options_;
  double inv_width_ = 0.0;      // linear: 1 / bucket width
  double inv_log_ratio_ = 0.0;  // log: 1 / ln(per-bucket growth factor)
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // buckets + 2
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  // Get-or-create by name; the returned reference is valid for the
  // registry's lifetime. Re-registering a histogram ignores the new options
  // (first registration wins). Registering a name as two different metric
  // kinds throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, HistogramOptions options = {});

  MetricsSnapshot snapshot() const;

  std::string to_json() const;  // one {"counters":…,"gauges":…,"histograms":…}
  void write_json(const std::string& path) const;
  // Long format: metric,kind,key,value — one row per counter/gauge and per
  // histogram bucket, greppable and plottable without a JSON parser.
  void write_csv(const std::string& path) const;
  // Prometheus text exposition format (version 0.0.4): names are prefixed
  // `fedsu_` with dots/dashes mapped to underscores; histograms export
  // cumulative `le` buckets plus `_sum`/`_count`, so a long-running bench's
  // snapshot file is directly scrapeable (e.g. via node_exporter's textfile
  // collector).
  std::string to_prometheus() const;
  void write_prometheus(const std::string& path) const;
  // Dispatches on `format`: "json" | "csv" | "prom" (also accepted:
  // "prometheus"). "auto" picks by path suffix (.csv / .prom / else JSON).
  // Throws std::invalid_argument on an unknown format name.
  void write(const std::string& path, const std::string& format) const;

  // The metric name as Prometheus exposes it (exposed for the validator and
  // tests): `fedsu_` + name with every non-[a-zA-Z0-9_] mapped to '_'.
  static std::string prometheus_name(const std::string& name);

  // Process-wide registry the runtime instrumentation records into.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fedsu::obs

#include "obs/metrics.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "util/csv.h"

namespace fedsu::obs {

namespace {
// fetch_add for atomic<double> is C++20; a CAS loop keeps us portable
// across the libstdc++/libc++ versions the CI matrix builds with.
void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.buckets <= 0) {
    throw std::invalid_argument("Histogram: buckets must be positive");
  }
  if (!(options_.hi > options_.lo)) {
    throw std::invalid_argument("Histogram: hi must exceed lo");
  }
  if (options_.scale == HistogramOptions::Scale::kLog && options_.lo <= 0.0) {
    throw std::invalid_argument("Histogram: log scale requires lo > 0");
  }
  const int b = options_.buckets;
  bounds_.resize(static_cast<std::size_t>(b) + 1);
  if (options_.scale == HistogramOptions::Scale::kLinear) {
    const double width = (options_.hi - options_.lo) / b;
    inv_width_ = 1.0 / width;
    for (int i = 0; i <= b; ++i) bounds_[i] = options_.lo + width * i;
  } else {
    const double ratio = std::pow(options_.hi / options_.lo, 1.0 / b);
    inv_log_ratio_ = 1.0 / std::log(ratio);
    for (int i = 0; i <= b; ++i) {
      bounds_[i] = options_.lo * std::pow(ratio, i);
    }
  }
  bounds_.front() = options_.lo;
  bounds_.back() = options_.hi;
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(b) + 2);  // [under, buckets..., over]
  for (int i = 0; i < b + 2; ++i) counts_[i].store(0, std::memory_order_relaxed);
}

int Histogram::bucket_index(double value) const {
  if (!(value >= options_.lo)) return -1;  // NaN also counts as underflow
  if (value >= options_.hi) return options_.buckets;
  int idx;
  if (options_.scale == HistogramOptions::Scale::kLinear) {
    idx = static_cast<int>((value - options_.lo) * inv_width_);
  } else {
    idx = static_cast<int>(std::log(value / options_.lo) * inv_log_ratio_);
  }
  // Guard the float rounding at bucket edges.
  if (idx < 0) idx = 0;
  if (idx >= options_.buckets) idx = options_.buckets - 1;
  if (value < bounds_[static_cast<std::size_t>(idx)]) --idx;
  else if (value >= bounds_[static_cast<std::size_t>(idx) + 1]) ++idx;
  return idx;
}

void Histogram::record(double value) {
  const int idx = bucket_index(value);
  counts_[static_cast<std::size_t>(idx + 1)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.options = options_;
  snap.bounds = bounds_;
  snap.counts.resize(static_cast<std::size_t>(options_.buckets));
  for (int i = 0; i < options_.buckets; ++i) {
    snap.counts[static_cast<std::size_t>(i)] =
        counts_[static_cast<std::size_t>(i) + 1].load(
            std::memory_order_relaxed);
  }
  snap.underflow = counts_[0].load(std::memory_order_relaxed);
  snap.overflow = counts_[static_cast<std::size_t>(options_.buckets) + 1].load(
      std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) || histograms_.count(name)) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered as another kind");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || histograms_.count(name)) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered as another kind");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) || gauges_.count(name)) {
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already registered as another kind");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": " + std::to_string(value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": " + json_number(value);
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + json_number(h.sum) +
           ", \"underflow\": " + std::to_string(h.underflow) +
           ", \"overflow\": " + std::to_string(h.overflow) + ", \"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ", ";
      out += json_number(h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("MetricsRegistry: cannot open " + path);
  }
  out << to_json();
  if (!out.flush()) {
    throw std::runtime_error("MetricsRegistry: write failed for " + path);
  }
}

void MetricsRegistry::write_csv(const std::string& path) const {
  const MetricsSnapshot snap = snapshot();
  util::CsvWriter csv(path);
  csv.write_row({"metric", "kind", "key", "value"});
  for (const auto& [name, value] : snap.counters) {
    csv.write_row({name, "counter", "", util::CsvWriter::field(
                                            static_cast<long long>(value))});
  }
  for (const auto& [name, value] : snap.gauges) {
    csv.write_row({name, "gauge", "", util::CsvWriter::field(value)});
  }
  for (const auto& [name, h] : snap.histograms) {
    csv.write_row({name, "histogram", "count",
                   util::CsvWriter::field(static_cast<long long>(h.count))});
    csv.write_row({name, "histogram", "sum", util::CsvWriter::field(h.sum)});
    csv.write_row({name, "histogram", "underflow",
                   util::CsvWriter::field(static_cast<long long>(h.underflow))});
    csv.write_row({name, "histogram", "overflow",
                   util::CsvWriter::field(static_cast<long long>(h.overflow))});
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      csv.write_row({name, "histogram",
                     "bucket_ge_" + util::CsvWriter::field(h.bounds[i]),
                     util::CsvWriter::field(
                         static_cast<long long>(h.counts[i]))});
    }
  }
}

std::string MetricsRegistry::prometheus_name(const std::string& name) {
  std::string out = "fedsu_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + json_number(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " histogram\n";
    // Prometheus buckets are cumulative counts of observations <= le; the
    // registry's underflow bin (value < lo) folds into every bucket and the
    // overflow bin only into +Inf.
    std::uint64_t cumulative = h.underflow;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += prom + "_bucket{le=\"" + json_number(h.bounds[i + 1]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum " + json_number(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void MetricsRegistry::write_prometheus(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("MetricsRegistry: cannot open " + path);
  }
  out << to_prometheus();
  if (!out.flush()) {
    throw std::runtime_error("MetricsRegistry: write failed for " + path);
  }
}

namespace {
bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

void MetricsRegistry::write(const std::string& path,
                            const std::string& format) const {
  std::string resolved = format;
  if (resolved == "auto") {
    if (has_suffix(path, ".csv")) resolved = "csv";
    else if (has_suffix(path, ".prom")) resolved = "prom";
    else resolved = "json";
  }
  if (resolved == "json") return write_json(path);
  if (resolved == "csv") return write_csv(path);
  if (resolved == "prom" || resolved == "prometheus") {
    return write_prometheus(path);
  }
  throw std::invalid_argument(
      "MetricsRegistry: metrics format must be auto | json | csv | prom, "
      "got '" + format + "'");
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace fedsu::obs

#include "obs/health.h"

#include <cmath>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace fedsu::obs {

const char* severity_name(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarning:
      return "warning";
    case AlertSeverity::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthOptions options) : options_(options) {}

void HealthMonitor::open_alerts_file(const std::string& path) {
  out_.open(path, std::ios::trunc);
  if (!out_) throw std::runtime_error("HealthMonitor: cannot open " + path);
  file_open_ = true;
}

void HealthMonitor::begin_run(const std::string& scheme,
                              std::size_t model_size) {
  scheme_ = scheme;
  model_size_ = model_size;
  nonfinite_loss_ = nonfinite_model_ = plateau_ = divergence_ = fallback_ =
      oscillation_ = straggler_ = staleness_ = byte_budget_ =
          checkpoint_failure_ = Rule{};
  best_loss_ = 0.0;
  has_best_loss_ = false;
  rounds_since_improvement_ = 0;
  divergence_streak_ = 0;
  fallback_streak_ = 0;
  spec_history_.clear();
  straggler_history_.clear();
  prev_state_.clear();
  has_prev_state_ = false;
}

std::string HealthMonitor::to_json_line(const Alert& alert) {
  std::string line = "{";
  line += "\"scheme\": " + json_quote(alert.scheme);
  line += ", \"round\": " + std::to_string(alert.round);
  line += ", \"rule\": " + json_quote(alert.rule);
  line += ", \"severity\": " + json_quote(severity_name(alert.severity));
  line += std::string(", \"state\": ") +
          (alert.raised ? "\"raised\"" : "\"cleared\"");
  line += ", \"value\": " + json_number(alert.value);
  line += ", \"threshold\": " + json_number(alert.threshold);
  line += ", \"message\": " + json_quote(alert.message);
  line += "}";
  return line;
}

void HealthMonitor::emit(int round, const char* rule, AlertSeverity severity,
                         bool raised, double value, double threshold,
                         const std::string& message) {
  Alert alert;
  alert.scheme = scheme_;
  alert.round = round;
  alert.rule = rule;
  alert.severity = severity;
  alert.raised = raised;
  alert.value = value;
  alert.threshold = threshold;
  alert.message = message;
  if (raised) ++raised_counts_[static_cast<int>(severity)];
  if (file_open_) {
    out_ << to_json_line(alert) << '\n';
    // Flushed per alert: a crashed run keeps what it saw.
    if (!out_.flush()) {
      throw std::runtime_error("HealthMonitor: alert write failed");
    }
  }
  if (metrics_enabled()) {
    auto& reg = MetricsRegistry::global();
    reg.counter(raised ? "health.alerts.raised" : "health.alerts.cleared")
        .add(1);
    if (raised) {
      reg.counter(std::string("health.alerts.") + severity_name(severity))
          .add(1);
    }
  }
  alerts_.push_back(std::move(alert));
}

void HealthMonitor::edge(Rule& rule, bool firing, int round, const char* name,
                         AlertSeverity severity, double value,
                         double threshold, const std::string& message) {
  if (firing == rule.active) return;
  rule.active = firing;
  emit(round, name, severity, firing, value, threshold,
       firing ? message : "condition cleared");
}

void HealthMonitor::observe_round(const fl::RoundRecord& record) {
  const int round = record.round;
  const bool aggregated = record.num_participants > 0;

  // --- non-finite loss (critical; trumps the windowed loss rules) ---
  const bool loss_nonfinite = aggregated && !std::isfinite(record.train_loss);
  edge(nonfinite_loss_, loss_nonfinite, round, "non_finite_loss",
       AlertSeverity::kCritical, record.train_loss, 0.0,
       "train loss is NaN/Inf");

  // --- plateau & divergence over the finite-loss stream ---
  if (aggregated && std::isfinite(record.train_loss)) {
    const double loss = record.train_loss;
    if (!has_best_loss_ || loss < best_loss_ - options_.plateau_epsilon) {
      best_loss_ = has_best_loss_ ? std::min(best_loss_, loss) : loss;
      has_best_loss_ = true;
      rounds_since_improvement_ = 0;
    } else {
      best_loss_ = std::min(best_loss_, loss);
      ++rounds_since_improvement_;
    }
    const bool diverging =
        has_best_loss_ && loss > options_.divergence_factor * best_loss_;
    divergence_streak_ = diverging ? divergence_streak_ + 1 : 0;

    if (options_.plateau_window > 0) {
      edge(plateau_, rounds_since_improvement_ >= options_.plateau_window,
           round, "loss_plateau", AlertSeverity::kWarning,
           static_cast<double>(rounds_since_improvement_),
           static_cast<double>(options_.plateau_window),
           "train loss stopped improving");
    }
    if (options_.divergence_window > 0) {
      edge(divergence_, divergence_streak_ >= options_.divergence_window,
           round, "loss_divergence", AlertSeverity::kCritical, loss,
           options_.divergence_factor * best_loss_,
           "train loss diverged from its best");
    }
  }

  // --- fallback-sync storm (speculation demotion bursts) ---
  if (options_.fallback_storm_window > 0 && model_size_ > 0) {
    const double threshold =
        options_.fallback_storm_fraction * static_cast<double>(model_size_);
    fallback_streak_ = static_cast<double>(record.fallback_syncs) > threshold
                           ? fallback_streak_ + 1
                           : 0;
    edge(fallback_, fallback_streak_ >= options_.fallback_storm_window, round,
         "fallback_storm", AlertSeverity::kWarning,
         static_cast<double>(record.fallback_syncs), threshold,
         "sustained fallback-sync storm (speculation demotions)");
  }

  // --- speculated-fraction oscillation (promote/demote flapping) ---
  if (options_.osc_window > 1) {
    spec_history_.push_back(record.speculated_fraction);
    if (spec_history_.size() >
        static_cast<std::size_t>(options_.osc_window) + 1) {
      spec_history_.erase(spec_history_.begin());
    }
    int flips = 0;
    double prev_delta = 0.0;
    for (std::size_t i = 1; i < spec_history_.size(); ++i) {
      const double delta = spec_history_[i] - spec_history_[i - 1];
      if (std::abs(delta) < options_.osc_min_delta) continue;
      if (prev_delta != 0.0 && (delta < 0.0) != (prev_delta < 0.0)) ++flips;
      prev_delta = delta;
    }
    edge(oscillation_, flips >= options_.osc_flips, round,
         "speculation_oscillation", AlertSeverity::kWarning,
         static_cast<double>(flips), static_cast<double>(options_.osc_flips),
         "speculated fraction is oscillating (promote/demote flapping)");
  }

  // --- straggler drift (fault runs only) ---
  if (options_.straggler_window > 0 && record.faults) {
    straggler_history_.emplace_back(record.faults->stragglers,
                                    record.faults->selected);
    if (straggler_history_.size() >
        static_cast<std::size_t>(options_.straggler_window)) {
      straggler_history_.erase(straggler_history_.begin());
    }
    long long stragglers = 0, selected = 0;
    for (const auto& [s, n] : straggler_history_) {
      stragglers += s;
      selected += n;
    }
    const bool window_full =
        straggler_history_.size() ==
        static_cast<std::size_t>(options_.straggler_window);
    const double fraction =
        selected > 0 ? static_cast<double>(stragglers) /
                           static_cast<double>(selected)
                     : 0.0;
    edge(straggler_, window_full && fraction > options_.straggler_fraction,
         round, "straggler_drift", AlertSeverity::kWarning, fraction,
         options_.straggler_fraction,
         "sustained straggler fraction above threshold");
  }

  // --- async staleness blowup ---
  if (options_.staleness_max > 0 && record.async) {
    edge(staleness_, record.async->max_staleness > options_.staleness_max,
         round, "staleness_blowup", AlertSeverity::kWarning,
         static_cast<double>(record.async->max_staleness),
         static_cast<double>(options_.staleness_max),
         "aggregated an update older than the staleness limit");
  }

  // --- checkpoint-write failure (crash-recovery frontier lost) ---
  if (options_.checkpoint_failures && record.checkpoint) {
    edge(checkpoint_failure_, !record.checkpoint->ok, round,
         "checkpoint_failure", AlertSeverity::kCritical,
         record.checkpoint->ok ? 0.0 : 1.0, 0.0,
         record.checkpoint->ok
             ? "condition cleared"
             : "run-checkpoint write failed: " + record.checkpoint->error);
  }

  // --- per-round byte budget ---
  if (options_.byte_budget_per_round > 0) {
    const double bytes =
        static_cast<double>(record.bytes_up + record.bytes_down);
    edge(byte_budget_, bytes > static_cast<double>(
                                   options_.byte_budget_per_round),
         round, "byte_budget_overrun", AlertSeverity::kWarning, bytes,
         static_cast<double>(options_.byte_budget_per_round),
         "round exceeded its byte budget");
  }
}

void HealthMonitor::observe_model(int round, std::span<const float> state) {
  bool finite = true;
  for (const float v : state) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  double norm = 0.0;
  if (finite && has_prev_state_ && prev_state_.size() == state.size()) {
    // L2 norm of the update since the previous probe, accumulated in
    // double like every other reduction in the repo.
    for (std::size_t i = 0; i < state.size(); ++i) {
      const double d = static_cast<double>(state[i]) -
                       static_cast<double>(prev_state_[i]);
      norm += d * d;
    }
    norm = std::sqrt(norm);
  }
  edge(nonfinite_model_, !finite || !std::isfinite(norm), round,
       "non_finite_update", AlertSeverity::kCritical, norm, 0.0,
       "global model or update norm is NaN/Inf");
  prev_state_.assign(state.begin(), state.end());
  has_prev_state_ = true;
}

std::function<void(const fl::RoundRecord&)> HealthMonitor::hook() {
  return [this](const fl::RoundRecord& record) { observe_round(record); };
}

int HealthMonitor::raised_count(AlertSeverity severity) const {
  return raised_counts_[static_cast<int>(severity)];
}

bool HealthMonitor::healthy() const {
  return !(nonfinite_loss_.active || nonfinite_model_.active ||
           divergence_.active || checkpoint_failure_.active);
}

}  // namespace fedsu::obs

// Run-health monitoring: an in-process rule engine over the per-round
// record stream (DESIGN.md §12).
//
// The bottom observability layer (metrics / spans / telemetry) records what
// a run did; nothing watched it. HealthMonitor closes that gap: it is fed
// one fl::RoundRecord per round (synchronous) or per aggregation cycle
// (buffered-async) — plus an optional model-state probe — and emits
// severity-graded alerts on the failure modes a FedSU run can silently
// enter: NaN/Inf in the loss or the global update, loss plateau and
// divergence windows, fallback-sync storms and speculated-fraction
// oscillation (the promote/demote flapping the paper's speculation fence
// exists to prevent), straggler drift, staleness blowup in async mode, and
// per-round byte-budget overruns.
//
// Every rule is edge-triggered: one "raised" alert when the condition
// starts, one "cleared" alert when it ends — no per-round spam while a
// condition persists. Alerts go to an optional JSONL file (flushed per
// line, so a killed run keeps its alert history — same durability contract
// as obs::TelemetryWriter); their per-severity totals reach the run
// manifest through raised_count().
//
// Determinism contract (DESIGN.md §5b): the monitor only READS records and
// state; it never touches the simulated clock, the RNG streams, or the
// model, so a monitored run is bitwise identical to an unmonitored one
// (test_obs.cpp: MonitoredRunIsBitwiseIdenticalToUnmonitored).
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fl/simulation.h"

namespace fedsu::obs {

enum class AlertSeverity : int { kInfo = 0, kWarning = 1, kCritical = 2 };

// "info" | "warning" | "critical".
const char* severity_name(AlertSeverity severity);

// Thresholds for every rule. The defaults are calibrated for the repo's
// 10-iteration rounds (noisy losses: plateau/divergence windows are
// several rounds so one bad round never pages). A threshold's rule is
// disabled entirely when its window/limit is <= 0.
struct HealthOptions {
  // Loss plateau: the best finite train loss has not improved by at least
  // plateau_epsilon for plateau_window consecutive aggregating rounds.
  int plateau_window = 12;
  double plateau_epsilon = 1e-3;

  // Loss divergence: finite loss above divergence_factor x best-so-far for
  // divergence_window consecutive aggregating rounds. (A non-finite loss
  // is the separate, immediately-critical non_finite_loss rule.)
  double divergence_factor = 3.0;
  int divergence_window = 3;

  // Fallback-sync storm: fallback_syncs (demoted scalars) above
  // fallback_storm_fraction x model_size for fallback_storm_window
  // consecutive rounds. Needs model_size (set by begin_run); 0 disables.
  double fallback_storm_fraction = 0.05;
  int fallback_storm_window = 3;

  // Speculated-fraction oscillation: >= osc_flips direction reversals with
  // per-step amplitude >= osc_min_delta inside the trailing osc_window
  // rounds — the promote/demote flapping signature.
  double osc_min_delta = 0.05;
  int osc_window = 6;
  int osc_flips = 3;

  // Straggler drift: stragglers / selected over the trailing
  // straggler_window rounds above straggler_fraction (fault runs only).
  double straggler_fraction = 0.5;
  int straggler_window = 5;

  // Async staleness blowup: a consumed update older than staleness_max
  // aggregations.
  int staleness_max = 8;

  // Per-round byte budget over bytes_up + bytes_down, all participants.
  // 0 disables.
  std::size_t byte_budget_per_round = 0;

  // Checkpoint-write failure (docs/RECOVERY.md): a round whose scheduled
  // run-checkpoint write failed (RoundRecord::checkpoint with ok == false).
  // Critical — a run silently losing its recovery frontier is exactly the
  // state this subsystem exists to prevent. true enables (the record field
  // only appears when checkpointing is configured, so the rule is inert on
  // checkpoint-off runs either way).
  bool checkpoint_failures = true;
};

// One edge of one rule. `raised` false means the condition cleared.
struct Alert {
  std::string scheme;
  int round = 0;
  std::string rule;
  AlertSeverity severity = AlertSeverity::kInfo;
  bool raised = true;
  double value = 0.0;      // the measured quantity that crossed
  double threshold = 0.0;  // what it crossed
  std::string message;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = {});

  // Opens `path` for truncating JSONL write (one Alert per line, flushed
  // per line). Throws std::runtime_error on I/O failure.
  void open_alerts_file(const std::string& path);

  // Starts a fresh run segment: resets every rule's state (edges must not
  // leak across schemes) and labels subsequent alerts with `scheme`.
  // `model_size` (scalars) anchors the fraction-based storm threshold.
  void begin_run(const std::string& scheme, std::size_t model_size);

  // Feed one completed round (sync) or aggregation cycle (async).
  void observe_round(const fl::RoundRecord& record);

  // Optional model-state probe: scans for NaN/Inf and tracks the L2 norm
  // of the update since the previous probe. Copies O(model) floats, so
  // call it only when monitoring is on; it never mutates the state.
  void observe_model(int round, std::span<const float> state);

  // Installable as (or chained into) fl::Simulation::set_round_hook.
  std::function<void(const fl::RoundRecord&)> hook();

  const std::vector<Alert>& alerts() const { return alerts_; }
  // Raised-edge count per severity, over the monitor's whole lifetime.
  int raised_count(AlertSeverity severity) const;
  // True while no critical rule is currently active.
  bool healthy() const;

  // One alert as its JSONL line (no trailing newline); shared by tests and
  // the validator so they see the exact production encoding.
  static std::string to_json_line(const Alert& alert);

 private:
  struct Rule {
    bool active = false;
  };

  void emit(int round, const char* rule, AlertSeverity severity, bool raised,
            double value, double threshold, const std::string& message);
  // Raises on false->true, clears on true->false, else does nothing.
  void edge(Rule& rule, bool firing, int round, const char* name,
            AlertSeverity severity, double value, double threshold,
            const std::string& message);

  HealthOptions options_;
  std::ofstream out_;
  bool file_open_ = false;
  std::string scheme_;
  std::size_t model_size_ = 0;
  std::vector<Alert> alerts_;
  int raised_counts_[3] = {0, 0, 0};

  // --- per-run rule state (reset by begin_run) ---
  Rule nonfinite_loss_, nonfinite_model_, plateau_, divergence_, fallback_,
      oscillation_, straggler_, staleness_, byte_budget_, checkpoint_failure_;
  double best_loss_ = 0.0;
  bool has_best_loss_ = false;
  int rounds_since_improvement_ = 0;
  int divergence_streak_ = 0;
  int fallback_streak_ = 0;
  std::vector<double> spec_history_;
  std::vector<std::pair<int, int>> straggler_history_;  // (stragglers, selected)
  std::vector<float> prev_state_;
  bool has_prev_state_ = false;
};

}  // namespace fedsu::obs

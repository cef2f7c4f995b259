// Run manifests: one self-describing JSON document per bench/example run
// (DESIGN.md §12).
//
// A manifest answers "what exactly was this run?" without the shell history:
// every resolved flag, the seed, thread count, ISA dispatch level, build
// type, wall-clock start/end, the outcome, and the headline aggregates the
// communication-efficiency literature compares on — time-to-target,
// bytes-to-target, final accuracy — one entry per (setting, scheme) cell,
// plus fault and alert totals. tools/obs_report renders it; the extended
// tools/validate_telemetry checks its schema and reconciles its totals
// against the telemetry JSONL from the same run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fedsu::obs {

// Headline aggregates for one (setting, scheme) cell of a run.
struct RunAggregates {
  std::string scheme;
  std::string setting;  // bench cell label; empty for single-cell benches
  int rounds = 0;
  double sim_time_s = 0.0;   // simulated seconds, whole run
  double wall_seconds = 0.0; // host wall time in the round loop
  double total_gigabytes = 0.0;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  // Negative means the accuracy target was never reached (serialized null).
  double time_to_target_s = -1.0;
  double gigabytes_to_target = -1.0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  // Host memory at cell completion (obs::sample_memory): the process RSS
  // high-water mark and the live heap bytes. 0 = not sampled / platform
  // cannot report; serialized as a "memory" object only when nonzero so
  // pre-existing manifests and consumers are unaffected.
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t heap_live_bytes = 0;
  // Summed RoundRecord::FaultCounters fields; empty when faults were off.
  std::map<std::string, std::uint64_t> fault_totals;
  // HealthMonitor raised-edge counts attributable to this cell.
  int alerts_info = 0;
  int alerts_warning = 0;
  int alerts_critical = 0;
};

// Crash-recovery summary for a run that used periodic checkpointing and/or
// resumed from a checkpoint (docs/RECOVERY.md). Serialized as a "recovery"
// object only when engaged so pre-recovery manifests are unaffected.
struct RunRecovery {
  bool resumed = false;          // this process restored a checkpoint
  int resumed_from_round = -1;   // rounds completed in the restored snapshot
  std::string resumed_path;      // the checkpoint file restored
  int checkpoint_every = 0;      // configured cadence (0 = off)
  std::string checkpoint_dir;
  int checkpoints_written = 0;   // successful writes, whole run
  int checkpoint_failures = 0;   // failed writes, whole run
};

// Execution environment, identical for every cell of a run.
struct RunEnvironment {
  std::uint64_t seed = 0;
  int threads = 1;
  std::string isa;        // tensor::gemm::isa_name()
  std::string build;      // "release" | "debug" (NDEBUG at compile time)
  std::string obs_level;  // resolved obs::level_name
};

class RunManifest {
 public:
  // Captures the wall-clock start time; `bench` names the producing binary.
  explicit RunManifest(std::string bench);

  // All resolved flags, in registration order (util::Flags::resolved()).
  void set_config(std::vector<std::pair<std::string, std::string>> config);
  void set_environment(RunEnvironment env);
  void add_run(RunAggregates aggregates);
  // "ok" | "failed"; anything a crashed run never wrote stays "running".
  void set_outcome(std::string outcome);
  // Engages the "recovery" object in the document.
  void set_recovery(RunRecovery recovery);

  // Serializes the full document (stamps the end time at call time).
  std::string to_json() const;
  // to_json() to `path`; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

  static constexpr const char* kSchema = "fedsu.run_manifest.v1";

 private:
  std::string bench_;
  std::int64_t start_unix_s_ = 0;
  std::string outcome_ = "running";
  RunEnvironment env_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<RunAggregates> runs_;
  bool has_recovery_ = false;
  RunRecovery recovery_;
};

}  // namespace fedsu::obs

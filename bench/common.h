// Shared configuration and helpers for the bench binaries (one per paper
// table/figure — see DESIGN.md §4).
//
// Every bench accepts the same workload flags with single-core-friendly
// defaults; EXPERIMENTS.md records the shapes these defaults reproduce.
// The network default (0.1 Mbps) keeps the paper's regime — communication
// is the majority of FedAvg round time — after scaling model size down from
// ResNet-18/DenseNet-121 to the 1-vCPU zoo (DESIGN.md §2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"
#include "obs/health.h"
#include "obs/manifest.h"
#include "obs/memory.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedsu::bench {

struct BenchConfig {
  std::string dataset = "emnist";  // emnist | fmnist | cifar
  int clients = 8;
  int rounds = 50;
  int iterations = 10;
  int batch = 16;
  double lr = 0.03;
  double noise = 1.0;
  double alpha = 1.0;
  int train_count = 1200;
  int test_count = 400;
  int eval_every = 2;
  double bandwidth_mbps = 0.1;
  std::uint64_t seed = 42;
  std::string csv_dir;  // empty: no CSV dump
  // Worker threads for dataset synthesis, client training, test evaluation
  // and the large tensor kernels. 0 = hardware concurrency; 1 = the
  // historical sequential path. Results are bitwise identical either way
  // (DESIGN.md §"Determinism under parallelism"); only the wall clock
  // changes.
  int threads = 0;
  // FedSU thresholds; defaults are the lossless operating point calibrated
  // for 10-iteration rounds (EXPERIMENTS.md "Threshold scaling").
  double t_r = 0.05;
  double t_s = 2.0;
  int no_check = 2;
  // CMFL sign-relevance threshold; 0.8 in the paper, 0.7 at this repo's
  // noisier 10-iteration rounds (EXPERIMENTS.md "Threshold scaling").
  double cmfl_relevance = 0.7;
  // Observability (DESIGN.md §8). "auto" derives the level from the
  // requested outputs: trace if --trace-out is set, metrics if any other
  // output is, off otherwise — so plain runs pay zero instrumentation cost.
  std::string obs_level = "auto";  // auto | off | metrics | trace
  std::string trace_out;           // chrome://tracing timeline JSON
  // Run-level observability (DESIGN.md §12), written by a RunObservatory:
  // per-round telemetry JSONL, one manifest JSON per run and one JSONL
  // alert stream from the health monitor. Setting the manifest or the
  // alerts engages obs::HealthMonitor on the round loop. Only benches that
  // call add_observatory_flags accept these.
  std::string telemetry_out;
  std::string manifest_out;
  std::string alerts_out;
  // Fault injection & churn (fl/faults, docs/FAULT_MODEL.md). All zero by
  // default: the fault layer stays off and results are bitwise identical to
  // a faultless build.
  fl::FaultOptions faults;
  // Buffered-async execution (DESIGN.md §11). Off by default: the round
  // loop stays the synchronous barrier. buffer_k = 0 means half the cohort;
  // buffer_k >= the cohort with zero fault rates is the synchronous path.
  bool async_mode = false;
  int buffer_k = 0;
  double staleness_alpha = 0.5;
  // Crash recovery (docs/RECOVERY.md). checkpoint_every > 0 writes a run
  // checkpoint into checkpoint_dir every N rounds; --resume asks the bench
  // to restore the latest checkpoint there before the round loop (honored
  // by bench_recovery; ignored by benches that never crash mid-run).
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  // Retention: keep at most N checkpoints in checkpoint_dir, pruning the
  // oldest after each write (0 = keep all).
  int checkpoint_keep = 0;
  bool resume = false;
};

inline util::Flags make_flags(const BenchConfig& defaults) {
  util::Flags flags;
  flags.add_string("dataset", defaults.dataset, "emnist | fmnist | cifar")
      .add_int("clients", defaults.clients, "number of FL clients")
      .add_int("rounds", defaults.rounds, "FL rounds to run")
      .add_int("iterations", defaults.iterations, "local iterations per round")
      .add_int("batch", defaults.batch, "local batch size")
      .add_double("lr", defaults.lr, "SGD learning rate")
      .add_double("noise", defaults.noise, "synthetic dataset noise stddev")
      .add_double("alpha", defaults.alpha, "Dirichlet non-IID concentration")
      .add_int("train-count", defaults.train_count, "training samples")
      .add_int("test-count", defaults.test_count, "test samples")
      .add_int("eval-every", defaults.eval_every, "rounds between evaluations")
      .add_double("bandwidth-mbps", defaults.bandwidth_mbps,
                  "client link bandwidth (model-scaled; see DESIGN.md)")
      .add_int("seed", static_cast<long long>(defaults.seed), "random seed")
      .add_string("csv", defaults.csv_dir, "directory for CSV dumps (optional)")
      .add_int("threads", defaults.threads,
               "worker threads for data, training, eval and kernels "
               "(0 = hardware concurrency)")
      .add_double("t-r", defaults.t_r, "FedSU predictability threshold T_R")
      .add_double("t-s", defaults.t_s, "FedSU error-feedback threshold T_S")
      .add_int("no-check", defaults.no_check, "FedSU initial no-check period")
      .add_double("cmfl-relevance", defaults.cmfl_relevance,
                  "CMFL sign-relevance threshold")
      .add_string("obs-level", defaults.obs_level,
                  "observability level: auto | off | metrics | trace")
      .add_string("trace-out", defaults.trace_out,
                  "write a chrome://tracing span timeline JSON")
      .add_double("faults-churn", defaults.faults.crash_probability,
                  "per-round crash probability per client")
      .add_int("faults-crash-rounds", defaults.faults.crash_rounds_max,
               "max rounds a crashed client stays away")
      .add_double("faults-straggler", defaults.faults.straggler_probability,
                  "per-round straggler probability per client")
      .add_double("faults-straggler-factor",
                  defaults.faults.straggler_compute_factor,
                  "compute & comm slowdown multiplier for stragglers")
      .add_double("faults-loss", defaults.faults.upload_loss_probability,
                  "per-attempt upload loss probability")
      .add_int("faults-retries", defaults.faults.max_retries,
               "upload retries after a lost attempt")
      .add_double("faults-backoff-s", defaults.faults.retry_backoff_s,
                  "simulated seconds between upload attempts")
      .add_double("faults-corrupt", defaults.faults.corruption_probability,
                  "per-upload payload corruption probability")
      .add_double("faults-deadline-s", defaults.faults.deadline_s,
                  "server round deadline in simulated seconds (0 = none)")
      .add_double("faults-over-select", defaults.faults.over_select_fraction,
                  "extra participation fraction started as fault headroom")
      .add_int("faults-min-quorum", defaults.faults.min_quorum,
               "minimum aggregated uploads; below it the round stalls")
      .add_int("faults-seed", static_cast<long long>(defaults.faults.seed),
               "fault schedule seed (mixed with --seed)")
      .add_string("faults-trace", defaults.faults.trace_csv,
                  "CSV fault trace (round,client,event,value)")
      .add_int("faults-server-crash-at", defaults.faults.server_crash_at,
               "crash the server at the start of this round (-1 = never)")
      .add_double("faults-server-crash",
                  defaults.faults.server_crash_probability,
                  "per-round server-crash probability")
      .add_int("checkpoint-every", defaults.checkpoint_every,
               "write a run checkpoint every N rounds (0 = off)")
      .add_string("checkpoint-dir", defaults.checkpoint_dir,
                  "directory for run checkpoints (ckpt-NNNNNNNN.fedsu)")
      .add_int("checkpoint-keep", defaults.checkpoint_keep,
               "keep at most N checkpoints, pruning oldest (0 = keep all)")
      .add_bool("resume", defaults.resume,
                "resume from the latest checkpoint in --checkpoint-dir")
      .add_bool("async", defaults.async_mode,
                "buffered-async rounds: aggregate the first K uploads")
      .add_int("buffer-k", defaults.buffer_k,
               "async aggregation buffer size K (0 = half the cohort)")
      .add_double("staleness-alpha", defaults.staleness_alpha,
                  "async staleness discount exponent in 1/(1+s)^alpha");
  return flags;
}

// The outputs of a RunObservatory; registered only by the benches that
// build one, so every other bench rejects them.
inline void add_observatory_flags(util::Flags& flags,
                                  const BenchConfig& defaults) {
  flags.add_string("telemetry-out", defaults.telemetry_out,
                   "write per-round telemetry JSONL")
      .add_string("manifest-out", defaults.manifest_out,
                  "write a run manifest JSON (config, environment, aggregates)")
      .add_string("alerts-out", defaults.alerts_out,
                  "write health-monitor alerts JSONL");
}

// The comma-separated items of list flag `name`; empty is a usage error.
inline std::vector<std::string> list_flag(const util::Flags& flags,
                                          const std::string& name) {
  std::vector<std::string> out;
  std::stringstream ss(flags.get_string(name));
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw util::UsageError("--" + name + ": empty list");
  return out;
}

// A list flag of positive ints, such as a cohort ladder.
inline std::vector<int> ladder_flag(const util::Flags& flags,
                                    const std::string& name) {
  std::vector<int> out;
  for (const std::string& item : list_flag(flags, name)) {
    const bool digits = item.size() < 10 &&
                        item.find_first_not_of("0123456789") == item.npos;
    const int v = digits ? std::stoi(item) : 0;
    if (v <= 0) {
      throw util::UsageError("--" + name + ": not a positive int: " + item);
    }
    out.push_back(v);
  }
  return out;
}

// Resolves BenchConfig's observability selection into a process level.
inline obs::Level resolve_obs_level(const BenchConfig& config) {
  if (config.obs_level != "auto") return obs::parse_level(config.obs_level);
  if (!config.trace_out.empty()) return obs::Level::kTrace;
  if (!config.telemetry_out.empty() || !config.manifest_out.empty() ||
      !config.alerts_out.empty()) {
    return obs::Level::kMetrics;
  }
  return obs::Level::kOff;
}

// Writes the --trace-out timeline; every bench calls it once, at the end of
// main. (--telemetry-out / --alerts-out / --manifest-out are wired per round
// via RunObservatory below.)
inline void export_observability(const BenchConfig& config) {
  if (!config.trace_out.empty()) {
    obs::Tracer::global().write_chrome_json(config.trace_out);
    std::printf("trace written to %s\n", config.trace_out.c_str());
  }
}

inline BenchConfig config_from_flags(const util::Flags& flags) {
  BenchConfig config;
  config.dataset = flags.get_string("dataset");
  config.clients = static_cast<int>(flags.get_int("clients"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.iterations = static_cast<int>(flags.get_int("iterations"));
  config.batch = static_cast<int>(flags.get_int("batch"));
  config.lr = flags.get_double("lr");
  config.noise = flags.get_double("noise");
  config.alpha = flags.get_double("alpha");
  config.train_count = static_cast<int>(flags.get_int("train-count"));
  config.test_count = static_cast<int>(flags.get_int("test-count"));
  config.eval_every = static_cast<int>(flags.get_int("eval-every"));
  config.bandwidth_mbps = flags.get_double("bandwidth-mbps");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.csv_dir = flags.get_string("csv");
  config.threads = static_cast<int>(flags.get_int("threads"));
  // Benches funnel through here once, right after parse: size the shared
  // kernel pool to the same flag that sizes per-simulation pools.
  util::ThreadPool::set_global_threads(config.threads);
  config.t_r = flags.get_double("t-r");
  config.t_s = flags.get_double("t-s");
  config.no_check = static_cast<int>(flags.get_int("no-check"));
  config.cmfl_relevance = flags.get_double("cmfl-relevance");
  config.obs_level = flags.get_string("obs-level");
  config.trace_out = flags.get_string("trace-out");
  if (flags.has("telemetry-out")) {  // add_observatory_flags
    config.telemetry_out = flags.get_string("telemetry-out");
    config.manifest_out = flags.get_string("manifest-out");
    config.alerts_out = flags.get_string("alerts-out");
  }
  config.faults.crash_probability = flags.get_double("faults-churn");
  config.faults.crash_rounds_max =
      static_cast<int>(flags.get_int("faults-crash-rounds"));
  config.faults.straggler_probability = flags.get_double("faults-straggler");
  config.faults.straggler_compute_factor =
      flags.get_double("faults-straggler-factor");
  config.faults.straggler_comm_factor =
      flags.get_double("faults-straggler-factor");
  config.faults.upload_loss_probability = flags.get_double("faults-loss");
  config.faults.max_retries = static_cast<int>(flags.get_int("faults-retries"));
  config.faults.retry_backoff_s = flags.get_double("faults-backoff-s");
  config.faults.corruption_probability = flags.get_double("faults-corrupt");
  config.faults.deadline_s = flags.get_double("faults-deadline-s");
  config.faults.over_select_fraction = flags.get_double("faults-over-select");
  config.faults.min_quorum =
      static_cast<int>(flags.get_int("faults-min-quorum"));
  config.faults.seed = static_cast<std::uint64_t>(flags.get_int("faults-seed"));
  config.faults.trace_csv = flags.get_string("faults-trace");
  config.faults.server_crash_at =
      static_cast<int>(flags.get_int("faults-server-crash-at"));
  config.faults.server_crash_probability =
      flags.get_double("faults-server-crash");
  config.checkpoint_every = static_cast<int>(flags.get_int("checkpoint-every"));
  config.checkpoint_dir = flags.get_string("checkpoint-dir");
  config.checkpoint_keep = static_cast<int>(flags.get_int("checkpoint-keep"));
  config.resume = flags.get_bool("resume");
  if (config.resume) {
    // A resumed process is a new server: the crash plan described the life
    // of the one that died (docs/FAULT_MODEL.md §7). server_crash(round) is
    // a pure function of (seed, round), so without this the resumed run
    // would re-crash at the same scheduled round forever.
    config.faults.server_crash_at = -1;
    config.faults.server_crash_probability = 0.0;
  }
  config.async_mode = flags.get_bool("async");
  config.buffer_k = static_cast<int>(flags.get_int("buffer-k"));
  config.staleness_alpha = flags.get_double("staleness-alpha");
  obs::set_level(resolve_obs_level(config));
  return config;
}

// Scales the conv workloads to 1-vCPU sizes: the CNN keeps the paper's
// 28x28 input; the ResNet/DenseNet stand-ins run on 14x14 / 16x16 images.
inline fl::SimulationOptions simulation_options(const BenchConfig& config) {
  fl::SimulationOptions options;
  options.model = nn::paper_spec(config.dataset);
  options.dataset = data::synthetic_preset(config.dataset);
  if (options.model.arch == "resnet") {
    options.model.image_size = 14;
    options.dataset.image_size = 14;
  } else if (options.model.arch == "densenet") {
    options.model.image_size = 16;
    options.dataset.image_size = 16;
  }
  options.dataset.train_count = config.train_count;
  options.dataset.test_count = config.test_count;
  options.dataset.noise = static_cast<float>(config.noise);
  options.dataset.label_noise = 0.05f;
  options.dataset.seed = config.seed ^ 0x51ed;
  options.num_clients = config.clients;
  options.dirichlet_alpha = config.alpha;
  options.local.iterations = config.iterations;
  options.local.batch_size = config.batch;
  options.local.learning_rate = static_cast<float>(config.lr);
  options.local.weight_decay = 1e-3f;
  options.participation_fraction = 0.7;
  options.network.client_bandwidth_bps = config.bandwidth_mbps * 1e6;
  options.network.seed = config.seed ^ 0xbeef;
  options.eval_every = config.eval_every;
  options.seed = config.seed;
  options.threads = config.threads;
  options.faults = config.faults;
  options.async.enabled = config.async_mode;
  options.async.buffer_k = config.buffer_k;
  options.async.staleness_alpha = config.staleness_alpha;
  options.checkpoint.every = config.checkpoint_every;
  options.checkpoint.dir = config.checkpoint_dir;
  options.checkpoint.keep = config.checkpoint_keep;
  return options;
}

inline fl::ProtocolConfig protocol_config(const BenchConfig& config,
                                          const std::string& name) {
  fl::ProtocolConfig pc;
  pc.name = name;
  pc.num_clients = config.clients;
  pc.fedsu.t_r = config.t_r;
  pc.fedsu.t_s = config.t_s;
  pc.fedsu.initial_no_check = config.no_check;
  pc.fedsu_v1.t_r = config.t_r;
  pc.cmfl_relevance = config.cmfl_relevance;
  return pc;
}

struct SchemeRun {
  std::string scheme;
  std::vector<fl::RoundRecord> records;
  metrics::RunSummary summary;
  std::optional<double> time_to_target_s;
  std::optional<int> rounds_to_target;
  double wall_seconds = 0.0;  // real time spent in the round loop
  int threads = 1;            // resolved worker-thread count of the run
};

// Fault tallies summed over a run's records, keyed as the run manifest
// records them; empty when the fault layer was off.
inline std::map<std::string, std::uint64_t> fault_totals(
    const std::vector<fl::RoundRecord>& records) {
  std::map<std::string, std::uint64_t> f;
  for (const fl::RoundRecord& rec : records) {
    if (!rec.faults) continue;
    f["selected"] += static_cast<std::uint64_t>(rec.faults->selected);
    f["crashed"] += static_cast<std::uint64_t>(rec.faults->crashed);
    f["rejoined"] += static_cast<std::uint64_t>(rec.faults->rejoined);
    f["resyncs"] += static_cast<std::uint64_t>(rec.faults->resyncs);
    f["stragglers"] += static_cast<std::uint64_t>(rec.faults->stragglers);
    f["retries"] += static_cast<std::uint64_t>(rec.faults->retries);
    f["corrupt"] += static_cast<std::uint64_t>(rec.faults->corrupt);
    f["deadline_missed"] +=
        static_cast<std::uint64_t>(rec.faults->deadline_missed);
    f["unused"] += static_cast<std::uint64_t>(rec.faults->unused);
    if (!rec.faults->quorum_met) f["stalled_rounds"] += 1;
  }
  return f;
}

// Run-level observability for a bench process (DESIGN.md §12): owns the
// telemetry writer, the health monitor, and the run manifest that
// --telemetry-out / --alerts-out / --manifest-out requested, and feeds them
// from run_scheme's round loop. One observatory spans every (setting,
// scheme) cell a bench runs; per-cell state is reset by begin_scheme so
// alert edges never leak across cells.
//
// §5b contract: the observatory only reads records and the global state —
// it never touches the simulated clock, RNG streams, or model — so a run
// with an observatory attached is bitwise identical to one without
// (tests/test_obs.cpp: MonitoredRunIsBitwiseIdenticalToUnmonitored).
class RunObservatory {
 public:
  RunObservatory(const BenchConfig& config, const std::string& bench_name,
                 const util::Flags* flags = nullptr)
      : config_(config) {
    if (!config_.manifest_out.empty()) {
      manifest_.emplace(bench_name);
      obs::RunEnvironment env;
      env.seed = config_.seed;
      env.threads = util::ThreadPool::resolve_threads(config_.threads);
      env.isa = tensor::gemm::isa_name();
#ifdef NDEBUG
      env.build = "release";
#else
      env.build = "debug";
#endif
      env.obs_level = obs::level_name(obs::level());
      manifest_->set_environment(env);
      if (flags) manifest_->set_config(flags->resolved());
    }
    // The monitor runs, at the obs::HealthOptions defaults, whenever
    // anything consumes its output: an alert stream, or a manifest (which
    // records per-cell alert totals).
    if (!config_.alerts_out.empty() || manifest_) {
      monitor_.emplace();
      if (!config_.alerts_out.empty()) {
        monitor_->open_alerts_file(config_.alerts_out);
      }
    }
    if (!config_.telemetry_out.empty()) {
      telemetry_.emplace(config_.telemetry_out, bench_name);
    }
  }

  // Installs the round feed on `sim` and resets per-cell monitor state.
  // `label` tags telemetry rows and alerts; convention: "setting/scheme"
  // for multi-cell benches, plain scheme name otherwise.
  void begin_scheme(fl::Simulation& sim, const std::string& label) {
    if (monitor_) {
      monitor_->begin_run(label, sim.model_state_size());
      for (int s = 0; s < 3; ++s) {
        alert_base_[s] =
            monitor_->raised_count(static_cast<obs::AlertSeverity>(s));
      }
    }
    if (telemetry_) telemetry_->set_protocol(label);
    if (telemetry_ || monitor_) {
      sim.set_round_hook([this](const fl::RoundRecord& record) {
        if (telemetry_) telemetry_->append(record);
        if (monitor_) monitor_->observe_round(record);
      });
    }
  }

  // Post-round work the hook cannot do: the model-state probe (needs the
  // simulation, not just the record) and the manifest's checkpoint counts.
  void after_round(const fl::Simulation& sim, const fl::RoundRecord& record) {
    if (monitor_) monitor_->observe_model(record.round, sim.global_state());
    if (record.checkpoint) {
      if (record.checkpoint->ok) ++checkpoints_written_;
      else ++checkpoint_failures_;
    }
  }

  // Folds a finished cell into the manifest.
  void record(const SchemeRun& run, const std::string& setting) {
    if (!manifest_) return;
    obs::RunAggregates agg;
    agg.scheme = run.scheme;
    agg.setting = setting;
    agg.rounds = run.summary.rounds;
    agg.sim_time_s = run.summary.total_time_s;
    agg.wall_seconds = run.wall_seconds;
    agg.total_gigabytes = run.summary.total_gigabytes;
    agg.final_accuracy = run.summary.final_accuracy;
    agg.best_accuracy = run.summary.best_accuracy;
    agg.time_to_target_s = run.time_to_target_s.value_or(-1.0);
    // Sampled at cell completion: the peak is process-wide (monotone across
    // cells), heap_live is what this cell still holds at its end.
    const obs::MemoryStats mem = obs::sample_memory();
    agg.peak_rss_bytes = mem.peak_rss_bytes;
    agg.heap_live_bytes = mem.heap_live_bytes;
    for (const auto& rec : run.records) {
      agg.bytes_up += rec.bytes_up;
      agg.bytes_down += rec.bytes_down;
    }
    agg.fault_totals = fault_totals(run.records);
    if (run.rounds_to_target) {
      std::uint64_t bytes = 0;
      const std::size_t upto =
          std::min(run.records.size(),
                   static_cast<std::size_t>(*run.rounds_to_target));
      for (std::size_t i = 0; i < upto; ++i) {
        bytes += run.records[i].bytes_up + run.records[i].bytes_down;
      }
      agg.gigabytes_to_target = static_cast<double>(bytes) / 1e9;
    }
    if (monitor_) {
      agg.alerts_info =
          monitor_->raised_count(obs::AlertSeverity::kInfo) - alert_base_[0];
      agg.alerts_warning =
          monitor_->raised_count(obs::AlertSeverity::kWarning) -
          alert_base_[1];
      agg.alerts_critical =
          monitor_->raised_count(obs::AlertSeverity::kCritical) -
          alert_base_[2];
    }
    manifest_->add_run(std::move(agg));
  }

  // Records that this process restored a checkpoint (bench_recovery) so the
  // manifest's recovery object carries the resume provenance.
  void note_resumed(int from_round, const std::string& path) {
    resumed_ = true;
    resumed_from_round_ = from_round;
    resumed_path_ = path;
  }

  // Stamps the outcome and writes the manifest; call once, after the last
  // cell (export_observability still writes the trace).
  void finish(bool ok) {
    if (!manifest_) return;
    if (resumed_ || config_.checkpoint_every > 0) {
      obs::RunRecovery recovery;
      recovery.resumed = resumed_;
      recovery.resumed_from_round = resumed_from_round_;
      recovery.resumed_path = resumed_path_;
      recovery.checkpoint_every = config_.checkpoint_every;
      recovery.checkpoint_dir = config_.checkpoint_dir;
      recovery.checkpoints_written = checkpoints_written_;
      recovery.checkpoint_failures = checkpoint_failures_;
      manifest_->set_recovery(std::move(recovery));
    }
    manifest_->set_outcome(ok ? "ok" : "failed");
    manifest_->write(config_.manifest_out);
    std::printf("manifest written to %s\n", config_.manifest_out.c_str());
  }

 private:
  BenchConfig config_;
  std::optional<obs::TelemetryWriter> telemetry_;
  std::optional<obs::HealthMonitor> monitor_;
  std::optional<obs::RunManifest> manifest_;
  int alert_base_[3] = {0, 0, 0};
  int checkpoints_written_ = 0;
  int checkpoint_failures_ = 0;
  bool resumed_ = false;
  int resumed_from_round_ = -1;
  std::string resumed_path_;
};

// Runs one scheme end-to-end. When `target` is set, the run still completes
// all rounds (curves need the tail) but the crossing is recorded. When an
// observatory is given, the round loop feeds it (telemetry, health rules,
// model probe) and the finished cell is folded into its manifest under
// `setting`.
inline SchemeRun run_scheme(const BenchConfig& config, const std::string& name,
                            std::optional<float> target = {},
                            RunObservatory* observatory = nullptr,
                            const std::string& setting = {}) {
  fl::Simulation sim(simulation_options(config),
                     fl::make_protocol(protocol_config(config, name)));
  SchemeRun run;
  run.scheme = name;
  run.threads = util::ThreadPool::resolve_threads(config.threads);
  if (observatory) {
    observatory->begin_scheme(
        sim, setting.empty() ? name : setting + "/" + name);
  }
  metrics::ConvergenceTracker tracker(target.value_or(0.999f));
  util::Stopwatch wall;
  for (int r = 0; r < config.rounds; ++r) {
    run.records.push_back(sim.step());
    tracker.observe(run.records.back());
    if (observatory) observatory->after_round(sim, run.records.back());
  }
  run.wall_seconds = wall.elapsed_seconds();
  run.summary = metrics::summarize(run.records);
  if (target && tracker.reached()) {
    run.time_to_target_s = tracker.time_to_target_s();
    run.rounds_to_target = tracker.rounds_to_target();
  }
  if (observatory) observatory->record(run, setting);
  return run;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace fedsu::bench

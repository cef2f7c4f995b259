// Robustness bench: time-to-accuracy and traffic under fault injection
// (fl/faults, docs/FAULT_MODEL.md) — FedSU vs FedAvg vs Top-k across a
// ladder of churn / straggler / loss settings. The question it answers:
// does speculation's saved traffic survive a hostile network, and how much
// simulated time do crashes, retries, and quorum stalls cost each scheme?
//
// Each (setting, scheme) cell reports the accuracy target crossing (time
// and rounds), total traffic, final accuracy, and the run's aggregate fault
// tallies. Results land in BENCH_robustness.json (written through
// bench::write_json, which schema-checks it first).
//
// With --async the same ladder runs under buffered-async execution
// (DESIGN.md §11): cells gain an "async-" prefix and the bench additionally
// checks the cumulative dispatch reconciliation (dispatched == consumed +
// lost + corrupt + deadline-missed + unused + in-flight at end) plus the
// per-cycle staleness-histogram invariant.
//
// Usage: bench_robustness [--out BENCH_robustness.json] [--target 0.55]
//                         [--smoke] [--async] [--buffer-k K]
//                         [+ the shared workload flags]
#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "harness.h"
#include "obs/json.h"

namespace {

using fedsu::bench::BenchConfig;
using fedsu::fl::FaultOptions;

struct Setting {
  std::string name;
  FaultOptions faults;
};

// The ladder: a clean baseline, then each fault family alone, then all of
// them at once. Rates are per-(round, client); the acceptance bar of >= 3
// churn/straggler settings is met by churn / stragglers / combined.
std::vector<Setting> settings(const FaultOptions& base) {
  std::vector<Setting> out;
  out.push_back({"baseline", {}});

  FaultOptions churn = base;
  churn.crash_probability = 0.08;
  churn.crash_rounds_max = 3;
  out.push_back({"churn", churn});

  FaultOptions stragglers = base;
  stragglers.straggler_probability = 0.25;
  stragglers.straggler_compute_factor = 4.0;
  stragglers.straggler_comm_factor = 4.0;
  out.push_back({"stragglers", stragglers});

  FaultOptions lossy = base;
  lossy.upload_loss_probability = 0.25;
  lossy.max_retries = 2;
  lossy.retry_backoff_s = 0.5;
  lossy.corruption_probability = 0.05;
  out.push_back({"lossy", lossy});

  FaultOptions combined = base;
  combined.crash_probability = 0.05;
  combined.crash_rounds_max = 2;
  combined.straggler_probability = 0.15;
  combined.straggler_compute_factor = 3.0;
  combined.straggler_comm_factor = 3.0;
  combined.upload_loss_probability = 0.15;
  combined.max_retries = 1;
  combined.corruption_probability = 0.03;
  combined.over_select_fraction = 0.2;
  out.push_back({"combined", combined});
  return out;
}

// Aggregates folded from the per-cycle async objects of one cell.
struct AsyncTotals {
  long long consumed = 0;
  long long final_inflight = 0;
  int max_staleness = 0;
  double staleness_sum = 0.0;
  int cycles = 0;
};

}  // namespace

int run(int argc, char** argv) {
  BenchConfig defaults;
  defaults.rounds = 40;
  defaults.eval_every = 2;
  fedsu::util::Flags flags = fedsu::bench::make_flags(defaults);
  fedsu::bench::add_observatory_flags(flags, defaults);
  flags.add_string("out", "BENCH_robustness.json", "output JSON path")
      .add_double("target", 0.55, "accuracy target for time-to-accuracy")
      .add_bool("smoke", false, "CI mode: tiny workload, schema check only");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config = fedsu::bench::config_from_flags(flags);
  if (flags.get_bool("smoke")) {
    config.rounds = 6;
    config.train_count = 240;
    config.test_count = 120;
    config.iterations = 4;
    config.eval_every = 2;
  }
  const auto target = static_cast<float>(flags.get_double("target"));
  const std::vector<std::string> schemes = {"fedsu", "fedavg", "topk"};

  // Run-level observability: one manifest / alert stream / telemetry file
  // spanning every (setting, scheme) cell, fed from run_scheme's loop.
  fedsu::bench::RunObservatory observatory(config, "bench_robustness", &flags);

  // --async switches the whole ladder to buffered-async execution
  // (DESIGN.md §11): same fault settings, but the server aggregates the
  // first K uploads instead of waiting out the barrier. Setting names gain
  // an "async-" prefix so artifacts from both modes can accumulate
  // side by side.
  const bool async_mode = config.async_mode;

  fedsu::bench::print_header(async_mode
                                 ? "Robustness (buffered-async): faults vs "
                                   "time-to-accuracy"
                                 : "Robustness: faults vs time-to-accuracy");
  std::printf("%-16s %-8s %9s %9s %7s %6s %6s %6s %6s\n", "setting",
              "scheme", "tta_s", "MB", "acc", "crash", "lost", "retry",
              "stall");

  std::ostringstream cells;
  int cell_count = 0;
  for (const Setting& setting : settings(config.faults)) {
    for (const std::string& scheme : schemes) {
      BenchConfig cell_config = config;
      cell_config.faults = setting.faults;
      const std::string cell_name =
          async_mode ? "async-" + setting.name : setting.name;
      // run_scheme builds the simulation from cell_config, so the fault
      // plan (and the async engine) rides in via simulation_options();
      // tallies are folded from the per-round records afterwards.
      fedsu::bench::SchemeRun run = fedsu::bench::run_scheme(
          cell_config, scheme, target, &observatory, cell_name);
      std::map<std::string, std::uint64_t> faults =
          fedsu::bench::fault_totals(run.records);
      const auto count = [&](const char* key) {
        return static_cast<long long>(faults[key]);
      };
      long long lost = 0;
      AsyncTotals async_totals;
      for (const fedsu::fl::RoundRecord& r : run.records) {
        lost += r.uploads_lost;
        if (r.async) {
          async_totals.consumed += r.async->consumed;
          async_totals.final_inflight = r.async->inflight;
          async_totals.max_staleness =
              std::max(async_totals.max_staleness, r.async->max_staleness);
          async_totals.staleness_sum +=
              r.async->mean_staleness * r.async->consumed;
          ++async_totals.cycles;
          // Per-cycle self-consistency: the staleness histogram accounts
          // for every aggregated upload.
          long long hist_sum = 0;
          for (int h : r.async->staleness_hist) hist_sum += h;
          if (hist_sum != r.async->consumed ||
              r.async->consumed != r.num_participants) {
            std::fprintf(stderr,
                         "FAIL: async stats inconsistent (%s/%s round %d)\n",
                         cell_name.c_str(), scheme.c_str(), r.round);
            return 1;
          }
        }
      }
      if (async_mode) {
        // Every cycle of an async cell must carry the async object...
        if (async_totals.cycles != static_cast<int>(run.records.size())) {
          std::fprintf(stderr, "FAIL: async object missing (%s/%s)\n",
                       cell_name.c_str(), scheme.c_str());
          return 1;
        }
        // ...and with faults on, dispatches reconcile cumulatively: every
        // dispatched upload was aggregated, lost, corrupted, past its
        // deadline, or is still in flight when the run ends (the per-round
        // barrier invariant has no meaning without a barrier).
        const bool cell_faulty = !run.records.empty() &&
                                 run.records.front().faults.has_value();
        const long long accounted =
            async_totals.consumed + lost + count("corrupt") +
            count("deadline_missed") + count("unused") +
            async_totals.final_inflight;
        if (cell_faulty && count("selected") != accounted) {
          std::fprintf(stderr,
                       "FAIL: async dispatch reconciliation broke (%s/%s): "
                       "%lld dispatched vs %lld accounted\n",
                       cell_name.c_str(), scheme.c_str(), count("selected"),
                       accounted);
          return 1;
        }
      }

      const double tta =
          run.time_to_target_s ? *run.time_to_target_s : -1.0;
      const double mb = run.summary.total_gigabytes * 1024.0;
      std::printf("%-16s %-8s %9.1f %9.2f %6.1f%% %6lld %6lld %6lld %6lld\n",
                  cell_name.c_str(), scheme.c_str(), tta, mb,
                  100.0 * run.summary.final_accuracy, count("crashed"), lost,
                  count("retries"), count("stalled_rounds"));

      cells << (cell_count++ ? ",\n" : "\n") << "    {\"setting\": "
            << fedsu::obs::json_quote(cell_name) << ", \"scheme\": "
            << fedsu::obs::json_quote(scheme)
            << ", \"rounds\": " << run.summary.rounds
            << ", \"time_to_target_s\": "
            << (run.time_to_target_s
                    ? fedsu::obs::json_number(*run.time_to_target_s)
                    : std::string("null"))
            << ", \"rounds_to_target\": "
            << (run.rounds_to_target ? std::to_string(*run.rounds_to_target)
                                     : std::string("null"))
            << ", \"total_time_s\": "
            << fedsu::obs::json_number(run.summary.total_time_s)
            << ", \"total_gigabytes\": "
            << fedsu::obs::json_number(run.summary.total_gigabytes)
            << ", \"final_accuracy\": "
            << fedsu::obs::json_number(run.summary.final_accuracy)
            << ", \"best_accuracy\": "
            << fedsu::obs::json_number(run.summary.best_accuracy)
            << ", \"mean_sparsification\": "
            << fedsu::obs::json_number(run.summary.mean_sparsification_ratio)
            << ", \"crashes\": " << count("crashed")
            << ", \"rejoins\": " << count("rejoined")
            << ", \"resyncs\": " << count("resyncs")
            << ", \"stragglers\": " << count("stragglers")
            << ", \"retries\": " << count("retries")
            << ", \"uploads_lost\": " << lost
            << ", \"corrupt\": " << count("corrupt")
            << ", \"quorum_stalls\": " << count("stalled_rounds")
            << ", \"async\": " << (async_mode ? "true" : "false")
            << ", \"max_staleness\": " << async_totals.max_staleness
            << ", \"mean_staleness\": "
            << fedsu::obs::json_number(
                   async_totals.consumed > 0
                       ? async_totals.staleness_sum /
                             static_cast<double>(async_totals.consumed)
                       : 0.0)
            << "}";
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"robustness\",\n  \"dataset\": "
      << fedsu::obs::json_quote(config.dataset)
      << ",\n  \"rounds\": " << config.rounds
      << ",\n  \"clients\": " << config.clients
      << ",\n  \"target_accuracy\": " << fedsu::obs::json_number(target)
      << ",\n  \"smoke\": " << (flags.get_bool("smoke") ? "true" : "false")
      << ",\n  \"cells\": [" << cells.str() << "\n  ]\n}\n";

  fedsu::bench::write_json(
      doc.str(), flags.get_string("out"),
      [&](const fedsu::obs::JsonValue& parsed) {
        const auto& parsed_cells = parsed.at("cells").as_array();
        if (parsed_cells.size() < 9) {
          throw std::runtime_error(
              "expected >= 9 cells (3 settings x 3 schemes)");
        }
        for (const auto& cell : parsed_cells) {
          cell.at("setting").as_string();
          cell.at("scheme").as_string();
          cell.at("total_gigabytes").as_number();
          cell.at("final_accuracy").as_number();
          cell.at("quorum_stalls").as_number();
          cell.at("async").as_bool();
          cell.at("max_staleness").as_number();
        }
      });
  observatory.finish(/*ok=*/true);
  fedsu::bench::export_observability(config);
  return 0;
}

// Scaling bench: cohort size vs host memory and per-round wall phases —
// FedSU vs FedAvg vs Top-k across a client ladder (8 .. 1024 by default).
// The question it answers: does the zero-copy shard / sparse-error-slab
// design keep an N-client simulation's footprint sub-linear in N, and where
// does the round's wall time go as the cohort grows (DESIGN.md §13)?
//
// Each (cohort, scheme) cell reports:
//   * measured memory while the cohort is live — peak RSS, current RSS,
//     live heap (obs::sample_memory), plus the heap delta attributable to
//     constructing the simulation itself (`heap_sim_bytes`);
//   * the analytic footprint of the pre-scaling design for the same cell —
//     one shard copy per client (`legacy_shard_bytes`) and the dense
//     clients x params error matrix (`legacy_error_bytes`, FedSU only) —
//     the before/after comparison the acceptance bar asks for;
//   * per-round wall-phase means from the records' wall fields (select /
//     train / sync / timing / eval, each the round's sim.* span time),
//     traffic, simulated time, and accuracy.
//
// Cells run in ascending client order because peak RSS is monotone over the
// process lifetime: each cell's peak is then attributable to the largest
// cohort seen so far, i.e. to itself. train-count scales with the cohort
// (>= 4 samples per client) so the Dirichlet partition never starves.
//
// Results land in BENCH_scale.json (written through bench::write_json,
// which schema-checks it first). --smoke shrinks the ladder
// to {8, 32} with a tiny workload for CI; tools/obs_report --diff gates
// cells on time/bytes/accuracy and, via the "memory" object, peak RSS.
// The obs level defaults to metrics, which records no trace events: pair
// --trace-out with --obs-level trace.
//
// Usage: bench_scale [--out BENCH_scale.json] [--clients-list 8,32,...]
//                    [--smoke] [+ the shared workload flags]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/memory.h"

using fedsu::bench::BenchConfig;

int run(int argc, char** argv) {
  BenchConfig defaults;
  defaults.rounds = 4;
  defaults.iterations = 2;
  defaults.batch = 8;
  defaults.train_count = 1024;  // floor; raised to 4 x clients per cell
  defaults.test_count = 256;
  defaults.eval_every = 4;
  // Phase means come from the records' wall fields, which the metrics
  // level fills (§5b: observation never perturbs results — only the wall
  // clock).
  defaults.obs_level = "metrics";
  fedsu::util::Flags flags = fedsu::bench::make_flags(defaults);
  fedsu::bench::add_observatory_flags(flags, defaults);
  flags.add_string("out", "BENCH_scale.json", "output JSON path")
      .add_string("clients-list", "8,32,128,512,1024",
                  "ascending cohort ladder (comma-separated)")
      .add_bool("smoke", false, "CI mode: tiny workload, ladder {8,32}");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config = fedsu::bench::config_from_flags(flags);
  std::vector<int> ladder = fedsu::bench::ladder_flag(flags, "clients-list");
  if (!std::is_sorted(ladder.begin(), ladder.end(), std::less_equal<>())) {
    throw fedsu::util::UsageError(
        "--clients-list: must be strictly ascending (peak RSS is monotone)");
  }
  if (flags.get_bool("smoke")) {
    ladder = {8, 32};
    config.rounds = 3;
    config.train_count = 256;
    config.test_count = 96;
    config.iterations = 2;
    config.eval_every = 3;
  }
  const std::vector<std::string> schemes = {"fedsu", "fedavg", "topk"};

  fedsu::bench::RunObservatory observatory(config, "bench_scale", &flags);

  fedsu::bench::print_header("Scale: cohort size vs memory and wall phases");
  std::printf("%-8s %-8s %9s %9s %9s %9s %9s %7s\n", "clients", "scheme",
              "peakMB", "heapMB", "simMB", "legacyMB", "wall_s", "acc");

  std::ostringstream cells;
  int cell_count = 0;
  for (const int clients : ladder) {
    for (const std::string& scheme : schemes) {
      BenchConfig cell_config = config;
      cell_config.clients = clients;
      // >= 4 samples per client keeps every Dirichlet shard non-empty
      // enough to train on; smaller cohorts keep the configured count.
      cell_config.train_count = std::max(config.train_count, 4 * clients);
      const std::string setting = "c" + std::to_string(clients);
      const std::string label = setting + "/" + scheme;

      const fedsu::obs::MemoryStats before = fedsu::obs::sample_memory();

      fedsu::fl::Simulation sim(
          fedsu::bench::simulation_options(cell_config),
          fedsu::fl::make_protocol(
              fedsu::bench::protocol_config(cell_config, scheme)));
      const fedsu::obs::MemoryStats built = fedsu::obs::sample_memory();

      fedsu::bench::SchemeRun run;
      run.scheme = scheme;
      run.threads =
          fedsu::util::ThreadPool::resolve_threads(cell_config.threads);
      observatory.begin_scheme(sim, label);
      fedsu::util::Stopwatch wall;
      for (int r = 0; r < cell_config.rounds; ++r) {
        run.records.push_back(sim.step());
        observatory.after_round(sim, run.records.back());
      }
      run.wall_seconds = wall.elapsed_seconds();
      run.summary = fedsu::metrics::summarize(run.records);
      // Sampled while the cohort is still alive: this is the number the
      // sweep exists to measure (run_scheme would destroy the simulation
      // before we could look).
      const fedsu::obs::MemoryStats live = fedsu::obs::sample_memory();
      observatory.record(run, setting);

      const std::size_t params = sim.model_state_size();
      // What the pre-scaling design would hold for this cell: one private
      // shard copy per client (the partition covers the train set exactly
      // once, so the copies sum to one extra train set) ...
      const fedsu::fl::SimulationOptions opts =
          fedsu::bench::simulation_options(cell_config);
      const std::uint64_t sample_bytes =
          static_cast<std::uint64_t>(opts.dataset.channels) *
          opts.dataset.image_size * opts.dataset.image_size * sizeof(float);
      const std::uint64_t legacy_shard_bytes =
          static_cast<std::uint64_t>(cell_config.train_count) * sample_bytes;
      // ... plus, for FedSU, the dense clients x params error matrix the
      // sparse slab store replaced.
      const std::uint64_t legacy_error_bytes =
          scheme == "fedsu"
              ? static_cast<std::uint64_t>(clients) * params * sizeof(float)
              : 0;
      const std::uint64_t heap_sim_bytes =
          built.heap_live_bytes > before.heap_live_bytes
              ? built.heap_live_bytes - before.heap_live_bytes
              : 0;

      const int rounds = run.summary.rounds;

      std::uint64_t bytes_up = 0, bytes_down = 0;
      fedsu::fl::RoundRecord::WallPhases wall_sum;  // over the cell's rounds
      for (const auto& r : run.records) {
        bytes_up += r.bytes_up;
        bytes_down += r.bytes_down;
        wall_sum.select_s += r.wall.select_s;
        wall_sum.train_s += r.wall.train_s;
        wall_sum.sync_s += r.wall.sync_s;
        wall_sum.timing_s += r.wall.timing_s;
        wall_sum.eval_s += r.wall.eval_s;
      }
      const double ms_per_round = rounds > 0 ? 1e3 / rounds : 0.0;

      std::printf("%-8d %-8s %9.1f %9.1f %9.1f %9.1f %9.2f %6.1f%%\n",
                  clients, scheme.c_str(), live.peak_rss_bytes / 1e6,
                  live.heap_live_bytes / 1e6, heap_sim_bytes / 1e6,
                  (legacy_shard_bytes + legacy_error_bytes) / 1e6,
                  run.wall_seconds, 100.0 * run.summary.final_accuracy);

      cells << (cell_count++ ? ",\n" : "\n") << "    {\"setting\": "
            << fedsu::obs::json_quote(setting) << ", \"scheme\": "
            << fedsu::obs::json_quote(scheme) << ", \"clients\": " << clients
            << ", \"params\": " << params
            << ", \"train_count\": " << cell_config.train_count
            << ", \"rounds\": " << rounds << ", \"total_time_s\": "
            << fedsu::obs::json_number(run.summary.total_time_s)
            << ", \"wall_seconds\": "
            << fedsu::obs::json_number(run.wall_seconds)
            << ", \"total_gigabytes\": "
            << fedsu::obs::json_number(run.summary.total_gigabytes)
            << ", \"final_accuracy\": "
            << fedsu::obs::json_number(run.summary.final_accuracy)
            << ", \"best_accuracy\": "
            << fedsu::obs::json_number(run.summary.best_accuracy)
            << ", \"bytes_up\": " << bytes_up
            << ", \"bytes_down\": " << bytes_down
            << ", \"memory\": {\"peak_rss_bytes\": " << live.peak_rss_bytes
            << ", \"current_rss_bytes\": " << live.current_rss_bytes
            << ", \"heap_live_bytes\": " << live.heap_live_bytes
            << ", \"heap_sim_bytes\": " << heap_sim_bytes
            << ", \"legacy_shard_bytes\": " << legacy_shard_bytes
            << ", \"legacy_error_bytes\": " << legacy_error_bytes << "}"
            << ", \"phases_ms_per_round\": {\"select\": "
            << fedsu::obs::json_number(wall_sum.select_s * ms_per_round)
            << ", \"train\": "
            << fedsu::obs::json_number(wall_sum.train_s * ms_per_round)
            << ", \"sync\": "
            << fedsu::obs::json_number(wall_sum.sync_s * ms_per_round)
            << ", \"timing\": "
            << fedsu::obs::json_number(wall_sum.timing_s * ms_per_round)
            << ", \"eval\": "
            << fedsu::obs::json_number(wall_sum.eval_s * ms_per_round)
            << "}}";
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"scale\",\n  \"dataset\": "
      << fedsu::obs::json_quote(config.dataset)
      << ",\n  \"rounds\": " << config.rounds
      << ",\n  \"threads\": "
      << fedsu::util::ThreadPool::resolve_threads(config.threads)
      << ",\n  \"smoke\": " << (flags.get_bool("smoke") ? "true" : "false")
      << ",\n  \"cells\": [" << cells.str() << "\n  ]\n}\n";

  fedsu::bench::write_json(
      doc.str(), flags.get_string("out"),
      [&](const fedsu::obs::JsonValue& parsed) {
        const auto& parsed_cells = parsed.at("cells").as_array();
        const std::size_t expected = ladder.size() * schemes.size();
        if (parsed_cells.size() != expected) {
          throw std::runtime_error("expected " + std::to_string(expected) +
                                   " cells");
        }
        for (const auto& cell : parsed_cells) {
          cell.at("setting").as_string();
          cell.at("scheme").as_string();
          cell.at("clients").as_number();
          cell.at("total_gigabytes").as_number();
          cell.at("final_accuracy").as_number();
          cell.at("memory").at("peak_rss_bytes").as_number();
          cell.at("memory").at("legacy_shard_bytes").as_number();
          cell.at("phases_ms_per_round").at("train").as_number();
        }
      });
  observatory.finish(/*ok=*/true);
  fedsu::bench::export_observability(config);
  return 0;
}

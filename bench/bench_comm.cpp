// Communication-path microbench: per-protocol server-side synchronize cost
// and exact wire traffic across model-zoo sizes x cohort ladders, with no
// training in the loop (DESIGN.md §15).
//
// Each (arch, cohort, scheme) cell drives the protocol's synchronize() with
// bench::SyntheticCohort's client states (a per-parameter linear drift plus
// per-(round, client) uniform noise, a pure function of the seed,
// independent of the GEMM ISA dispatch and of the thread count, §5b). The
// cohort's untimed warm-up rounds come first, so the speculative protocols
// are measured past their warm-up; over the --rounds rounds after it the
// cell reports:
//   * the median and MAD of synchronize()'s wall ms per round;
//   * tracer sub-phases (compress.<p>.select/quantize/vote/relevance/
//     aggregate, core.fedsu.speculate/feedback/diagnosis), ms per round;
//   * exact per-round bytes and scalars in each direction from the
//     wire::measure_* accounting — deterministic, so the regression gate
//     (tools/obs_report --diff) holds them to tolerance bytes_rel and the
//     wall median to time_rel.
//
// Results land in BENCH_comm.json (written through bench::write_json).
// --smoke shrinks to {logistic} x {8, 32} for CI.
//
// Usage: bench_comm [--out BENCH_comm.json] [--clients-list 8,64,256,1024]
//                   [--archs logistic,cnn,mlp] [--smoke]
//                   [+ shared flags: --rounds, --threads, --seed, ...]
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "harness.h"
#include "nn/zoo.h"
#include "obs/json.h"

using fedsu::bench::BenchConfig;

int run(int argc, char** argv) {
  BenchConfig defaults;
  defaults.rounds = 4;
  // Sub-phases come from the OBS_SPAN tracer (observation never perturbs
  // results, §5b — only the wall clock).
  defaults.obs_level = "trace";
  fedsu::util::Flags flags = fedsu::bench::make_flags(defaults);
  flags.add_string("out", "BENCH_comm.json", "output JSON path")
      .add_string("clients-list", "8,64,256,1024",
                  "cohort ladder (comma-separated)")
      .add_string("archs", "logistic,cnn,mlp",
                  "model-zoo architectures sizing the synthetic state")
      .add_bool("smoke", false,
                "CI mode: logistic x {8,32}, 3 rounds after the warm-up");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config = fedsu::bench::config_from_flags(flags);
  std::vector<int> ladder = fedsu::bench::ladder_flag(flags, "clients-list");
  std::vector<std::string> archs = fedsu::bench::list_flag(flags, "archs");
  if (flags.get_bool("smoke")) {
    ladder = {8, 32};
    archs = {"logistic"};
    config.rounds = 3;
  }
  const std::vector<std::string> schemes = {
      "fedavg", "cmfl", "apf", "topk", "qsgd", "signsgd", "fedsu"};

  fedsu::bench::print_header(
      "Comm: per-protocol synchronize cost and exact wire traffic");
  std::printf("%-9s %8s %-8s %-8s %10s %8s %10s %10s %6s\n", "arch",
              "params", "clients", "scheme", "sync_ms/r", "MAD", "up_KB/r",
              "down_KB/r", "spars");

  std::ostringstream cells;
  int cell_count = 0;
  const fedsu::util::Rng base(config.seed);
  for (std::size_t a = 0; a < archs.size(); ++a) {
    // The zoo model provides the parameter count and the initial state;
    // everything after round 0 is synthetic.
    fedsu::nn::ModelSpec spec;
    spec.arch = archs[a];
    fedsu::nn::Model model =
        fedsu::nn::build_model(spec, fedsu::util::Rng(config.seed));
    const std::vector<float> init = model.state_vector();
    const std::size_t p = init.size();

    for (const int clients : ladder) {
      fedsu::bench::SyntheticCohort cohort(
          init, static_cast<std::size_t>(clients),
          base.fork(a + 1).fork(static_cast<std::uint64_t>(clients)));
      for (const std::string& scheme : schemes) {
        BenchConfig cell_config = config;
        cell_config.clients = clients;
        auto protocol = fedsu::fl::make_protocol(
            fedsu::bench::protocol_config(cell_config, scheme));

        std::vector<double> sync_ms;
        double bytes_up = 0.0, bytes_down = 0.0;
        double scalars_up = 0.0, scalars_down = 0.0;
        std::map<std::string, double> phase_ms;
        const auto on_round = [&](const fedsu::bench::CohortRound& round) {
          const fedsu::compress::SyncResult& r = round.result;
          sync_ms.push_back(round.sync_ms);
          for (std::size_t i = 0; i < r.bytes_up.size(); ++i) {
            bytes_up += static_cast<double>(r.bytes_up[i]);
            bytes_down += static_cast<double>(r.bytes_down[i]);
          }
          scalars_up += static_cast<double>(r.scalars_up);
          scalars_down += static_cast<double>(r.scalars_down);
          for (const auto& [name, ms] : round.span_ms) phase_ms[name] += ms;
        };
        cohort.run(*protocol, config.rounds, on_round);
        const fedsu::bench::Stats wall = fedsu::bench::stats_of(sync_ms);
        const double inv_rounds = 1.0 / config.rounds;

        const std::string setting =
            archs[a] + "/c" + std::to_string(clients);
        std::printf("%-9s %8zu %-8d %-8s %10.3f %8.3f %10.1f %10.1f %6.3f\n",
                    archs[a].c_str(), p, clients, scheme.c_str(), wall.median,
                    wall.mad, bytes_up * inv_rounds / 1e3,
                    bytes_down * inv_rounds / 1e3,
                    protocol->last_sparsification_ratio());

        cells << (cell_count++ ? ",\n" : "\n") << "    {\"setting\": "
              << fedsu::obs::json_quote(setting) << ", \"scheme\": "
              << fedsu::obs::json_quote(scheme) << ", \"arch\": "
              << fedsu::obs::json_quote(archs[a]) << ", \"params\": " << p
              << ", \"clients\": " << clients
              << ", \"rounds\": " << config.rounds
              << ", \"wall_ms_per_round\": "
              << fedsu::obs::json_number(wall.median)
              << ", \"wall_mad_ms\": " << fedsu::obs::json_number(wall.mad)
              << ", \"bytes_up_per_round\": "
              << fedsu::obs::json_number(bytes_up * inv_rounds)
              << ", \"bytes_down_per_round\": "
              << fedsu::obs::json_number(bytes_down * inv_rounds)
              << ", \"scalars_up_per_round\": "
              << fedsu::obs::json_number(scalars_up * inv_rounds)
              << ", \"scalars_down_per_round\": "
              << fedsu::obs::json_number(scalars_down * inv_rounds)
              << ", \"sparsification_ratio\": "
              << fedsu::obs::json_number(
                     protocol->last_sparsification_ratio())
              << ", \"phases_ms_per_round\": {";
        // A round records only its protocol's compress.* / core.fedsu.*
        // spans.
        for (const auto& [name, ms] : phase_ms) {
          cells << (name == phase_ms.begin()->first ? "" : ", ")
                << fedsu::obs::json_quote(name) << ": "
                << fedsu::obs::json_number(ms * inv_rounds);
        }
        cells << "}}";
      }
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"comm\",\n  \"rounds\": " << config.rounds
      << ",\n  \"warmup_rounds\": " << fedsu::bench::kCohortWarmupRounds
      << ",\n  \"threads\": "
      << fedsu::util::ThreadPool::resolve_threads(config.threads)
      << ",\n  \"seed\": " << config.seed
      << ",\n  \"smoke\": " << (flags.get_bool("smoke") ? "true" : "false")
      << ",\n  \"cells\": [" << cells.str() << "\n  ]\n}\n";

  const std::size_t expected = archs.size() * ladder.size() * schemes.size();
  fedsu::bench::write_json(
      doc.str(), flags.get_string("out"),
      [&](const fedsu::obs::JsonValue& parsed) {
        if (parsed.at("bench").as_string() != "comm") {
          throw std::runtime_error("bench key mismatch");
        }
        const auto& parsed_cells = parsed.at("cells").as_array();
        if (parsed_cells.size() != expected) {
          throw std::runtime_error("expected " + std::to_string(expected) +
                                   " cells");
        }
        for (const auto& cell : parsed_cells) {
          cell.at("setting").as_string();
          cell.at("scheme").as_string();
          cell.at("params").as_number();
          cell.at("wall_ms_per_round").as_number();
          cell.at("wall_mad_ms").as_number();
          cell.at("bytes_up_per_round").as_number();
          cell.at("bytes_down_per_round").as_number();
          cell.at("phases_ms_per_round");
        }
      });
  fedsu::bench::export_observability(config);
  return 0;
}

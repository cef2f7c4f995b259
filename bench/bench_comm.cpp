// Communication-path microbench: per-protocol server-side synchronize cost
// and exact wire traffic across model-zoo sizes x cohort ladders, with no
// training in the loop (DESIGN.md §15).
//
// Each (arch, cohort, scheme) cell drives the protocol's synchronize() with
// synthetic client states — a per-parameter linear drift plus per-(round,
// client) uniform noise from counter-derived Rng streams, so every cell is
// a pure function of the seed, independent of the GEMM ISA dispatch and of
// the thread count (§5b). State generation happens outside the timed
// region; the cell reports:
//   * wall ms per round of the synchronize() call itself;
//   * tracer sub-phases (compress.<p>.select/quantize/vote/relevance/
//     aggregate, core.fedsu.speculate/feedback/diagnosis) in ms per round;
//   * exact per-round bytes and scalars in each direction from the
//     wire::measure_* accounting — deterministic, so the regression gate
//     (tools/obs_report --diff) holds them to tolerance bytes_rel and the
//     wall phases to time_rel.
//
// Results land in BENCH_comm.json (self-reparsed through obs::json_parse as
// a schema check). --smoke shrinks to {logistic} x {8, 32} for CI.
//
// Usage: bench_comm [--out BENCH_comm.json] [--clients-list 8,64,256,1024]
//                   [--archs logistic,cnn,mlp] [--smoke]
//                   [+ shared flags: --rounds, --threads, --seed, ...]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "nn/zoo.h"
#include "obs/json.h"

namespace {

using fedsu::bench::BenchConfig;

std::vector<int> parse_ladder(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int v = std::stoi(item);
    if (v <= 0) throw std::invalid_argument("clients-list: need positive ints");
    out.push_back(v);
  }
  if (out.empty()) throw std::invalid_argument("clients-list: empty");
  return out;
}

std::vector<std::string> parse_names(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw std::invalid_argument("archs: empty");
  return out;
}

// Span totals recorded since `before`, an earlier Tracer::aggregate():
// one cell's phases, with the tracer left whole for --trace-out. Ordered
// by the cell's own total time, descending, as aggregate() orders.
std::vector<fedsu::obs::PhaseTotal> phases_since(
    const std::vector<fedsu::obs::PhaseTotal>& before) {
  std::vector<fedsu::obs::PhaseTotal> phases =
      fedsu::obs::Tracer::global().aggregate();
  for (fedsu::obs::PhaseTotal& phase : phases) {
    for (const fedsu::obs::PhaseTotal& earlier : before) {
      if (earlier.name != phase.name) continue;
      phase.count -= earlier.count;
      phase.total_ms -= earlier.total_ms;
    }
  }
  std::erase_if(phases, [](const fedsu::obs::PhaseTotal& phase) {
    return phase.count == 0;
  });
  std::sort(phases.begin(), phases.end(),
            [](const fedsu::obs::PhaseTotal& a,
               const fedsu::obs::PhaseTotal& b) {
              return a.total_ms > b.total_ms;
            });
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
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
      .add_bool("smoke", false, "CI mode: logistic x {8,32}, 3 rounds");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config = fedsu::bench::config_from_flags(flags);
  std::vector<int> ladder = parse_ladder(flags.get_string("clients-list"));
  std::vector<std::string> archs = parse_names(flags.get_string("archs"));
  if (flags.get_bool("smoke")) {
    ladder = {8, 32};
    archs = {"logistic"};
    config.rounds = 3;
  }
  const std::vector<std::string> schemes = {
      "fedavg", "cmfl", "apf", "topk", "qsgd", "signsgd", "fedsu"};

  fedsu::bench::print_header(
      "Comm: per-protocol synchronize cost and exact wire traffic");
  std::printf("%-9s %8s %-8s %-8s %10s %10s %10s\n", "arch", "params",
              "clients", "scheme", "sync_ms/r", "up_KB/r", "down_KB/r");

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
      const std::size_t n = static_cast<std::size_t>(clients);
      // Per-parameter drift: a linear trajectory the speculative protocols
      // can lock onto, fixed for the cell.
      const fedsu::util::Rng cell_rng = base.fork(a + 1).fork(n);
      std::vector<float> drift(p);
      {
        fedsu::util::Rng r = cell_rng.fork(0);
        for (std::size_t j = 0; j < p; ++j) {
          drift[j] = static_cast<float>(0.01 * (r.uniform() * 2.0 - 1.0));
        }
      }
      std::vector<float> states(n * p);
      std::vector<std::span<const float>> views(n);
      for (std::size_t i = 0; i < n; ++i) {
        views[i] = std::span<const float>(states.data() + i * p, p);
      }
      fedsu::compress::RoundContext ctx;
      ctx.participants.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        ctx.participants[i] = static_cast<int>(i);
      }

      for (const std::string& scheme : schemes) {
        BenchConfig cell_config = config;
        cell_config.clients = clients;
        auto protocol = fedsu::fl::make_protocol(
            fedsu::bench::protocol_config(cell_config, scheme));
        protocol->initialize(init);
        std::vector<float> global = init;

        const std::vector<fedsu::obs::PhaseTotal> before =
            fedsu::obs::Tracer::global().aggregate();
        double sync_ms = 0.0;
        double bytes_up = 0.0, bytes_down = 0.0;
        double scalars_up = 0.0, scalars_down = 0.0;
        for (int round = 0; round < config.rounds; ++round) {
          // Untimed: synthesize this round's cohort. Per-(round, client)
          // streams keep generation order-free (and parallelizable).
          const fedsu::util::Rng round_rng = cell_rng.fork(round + 1);
          auto gen = [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
              fedsu::util::Rng r = round_rng.fork(i + 1);
              float* row = states.data() + i * p;
              for (std::size_t j = 0; j < p; ++j) {
                row[j] = global[j] + drift[j] +
                         static_cast<float>(0.002 * (r.uniform() * 2.0 - 1.0));
              }
            }
          };
          fedsu::util::ThreadPool::global().parallel_for(0, n, gen);

          ctx.round = round;
          ctx.global = global;
          fedsu::util::Stopwatch timer;
          fedsu::compress::SyncResult result =
              protocol->synchronize(ctx, views);
          sync_ms += timer.elapsed_seconds() * 1e3;
          for (std::size_t i = 0; i < n; ++i) {
            bytes_up += static_cast<double>(result.bytes_up[i]);
            bytes_down += static_cast<double>(result.bytes_down[i]);
          }
          scalars_up += static_cast<double>(result.scalars_up);
          scalars_down += static_cast<double>(result.scalars_down);
          global = std::move(result.new_global);
        }
        const double inv_rounds = 1.0 / config.rounds;
        const auto phases = phases_since(before);

        const std::string setting =
            archs[a] + "/c" + std::to_string(clients);
        std::printf("%-9s %8zu %-8d %-8s %10.3f %10.1f %10.1f\n",
                    archs[a].c_str(), p, clients, scheme.c_str(),
                    sync_ms * inv_rounds, bytes_up * inv_rounds / 1e3,
                    bytes_down * inv_rounds / 1e3);

        cells << (cell_count++ ? ",\n" : "\n") << "    {\"setting\": "
              << fedsu::obs::json_quote(setting) << ", \"scheme\": "
              << fedsu::obs::json_quote(scheme) << ", \"arch\": "
              << fedsu::obs::json_quote(archs[a]) << ", \"params\": " << p
              << ", \"clients\": " << clients
              << ", \"rounds\": " << config.rounds
              << ", \"wall_ms_per_round\": "
              << fedsu::obs::json_number(sync_ms * inv_rounds)
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
        bool first_phase = true;
        for (const auto& phase : phases) {
          const bool compress = phase.name.rfind("compress.", 0) == 0;
          const bool fedsu_core = phase.name.rfind("core.fedsu.", 0) == 0;
          if (!compress && !fedsu_core) continue;
          cells << (first_phase ? "" : ", ")
                << fedsu::obs::json_quote(phase.name) << ": "
                << fedsu::obs::json_number(phase.total_ms * inv_rounds);
          first_phase = false;
        }
        cells << "}}";
      }
    }
  }

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"comm\",\n  \"rounds\": " << config.rounds
      << ",\n  \"threads\": "
      << fedsu::util::ThreadPool::resolve_threads(config.threads)
      << ",\n  \"seed\": " << config.seed
      << ",\n  \"smoke\": " << (flags.get_bool("smoke") ? "true" : "false")
      << ",\n  \"cells\": [" << cells.str() << "\n  ]\n}\n";

  // Schema self-check before touching the checked-in file (bench_gemm
  // idiom): a broken emitter must never overwrite a good artifact.
  try {
    const fedsu::obs::JsonValue parsed = fedsu::obs::json_parse(doc.str());
    if (parsed.at("bench").as_string() != "comm") {
      throw std::runtime_error("bench key mismatch");
    }
    const auto& parsed_cells = parsed.at("cells").as_array();
    const std::size_t expected = archs.size() * ladder.size() * schemes.size();
    if (parsed_cells.size() != expected) {
      throw std::runtime_error("expected " + std::to_string(expected) +
                               " cells");
    }
    for (const auto& cell : parsed_cells) {
      cell.at("setting").as_string();
      cell.at("scheme").as_string();
      cell.at("params").as_number();
      cell.at("wall_ms_per_round").as_number();
      cell.at("bytes_up_per_round").as_number();
      cell.at("bytes_down_per_round").as_number();
      cell.at("phases_ms_per_round");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: emitted JSON failed schema check: %s\n",
                 e.what());
    return 1;
  }

  const std::string out_path = flags.get_string("out");
  std::ofstream out(out_path);
  out << doc.str();
  if (!out) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  fedsu::bench::export_observability(config);
  return 0;
}

// Extension bench (DESIGN.md §7): §III-A argues per-round updates are MORE
// similar than per-iteration ones because mini-batch noise accumulated over
// a round's iterations partially cancels. Sweep the local iteration count
// and measure (a) the median normalized difference of consecutive round
// updates and (b) FedSU's achieved sparsification — both should improve
// with more iterations per round, which is why the paper (50 iters) sees
// higher ratios than this repo's fast defaults (10 iters).
#include <cstdio>
#include <sstream>

#include "common.h"
#include "metrics/stats.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 20;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("iteration-counts", "2,5,15",
                   "comma list of local-iteration counts to sweep");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = 0;

  std::vector<int> counts;
  std::stringstream ss(flags.get_string("iteration-counts"));
  for (std::string item; std::getline(ss, item, ',');) {
    counts.push_back(std::stoi(item));
  }

  bench::print_header(
      "Iterations ablation: round-update smoothness vs local iterations (" +
      base.dataset + ")");
  std::printf("%-12s %22s %18s %14s\n", "iters/round", "median norm-diff",
              "FedSU mean ratio", "FedSU best acc");
  std::unique_ptr<util::CsvWriter> csv;
  if (!base.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(base.csv_dir +
                                            "/iterations_ablation.csv");
    csv->write_row({"iterations", "median_norm_diff", "fedsu_mean_ratio",
                    "fedsu_best_acc"});
  }

  for (int iters : counts) {
    bench::BenchConfig config = base;
    config.iterations = iters;

    // (a) update similarity under FedAvg.
    fl::Simulation fedavg_sim(
        bench::simulation_options(config),
        fl::make_protocol(bench::protocol_config(config, "fedavg")));
    metrics::NormalizedDifference nd;
    std::vector<float> prev = fedavg_sim.global_state();
    for (int r = 0; r < config.rounds; ++r) {
      fedavg_sim.step();
      const auto& state = fedavg_sim.global_state();
      std::vector<float> update(state.size());
      for (std::size_t j = 0; j < state.size(); ++j) {
        update[j] = state[j] - prev[j];
      }
      prev = state;
      nd.observe(update);
    }
    metrics::Cdf cdf;
    for (double v : nd.history()) cdf.add(v);
    const double median_nd = cdf.quantile(0.5);

    // (b) FedSU behaviour at this smoothness level.
    bench::BenchConfig fedsu_config = config;
    fedsu_config.eval_every = 3;
    const bench::SchemeRun fedsu = bench::run_scheme(fedsu_config, "fedsu");

    std::printf("%-12d %22.4f %18.3f %14.3f\n", iters, median_nd,
                fedsu.summary.mean_sparsification_ratio,
                fedsu.summary.best_accuracy);
    if (csv) {
      csv->write_row({std::to_string(iters), util::CsvWriter::field(median_nd),
                      util::CsvWriter::field(
                          fedsu.summary.mean_sparsification_ratio),
                      util::CsvWriter::field(fedsu.summary.best_accuracy)});
    }
  }
  bench::export_observability(base);
  return 0;
}

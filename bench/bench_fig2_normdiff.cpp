// Fig. 2: the normalized difference ||d_{k} - d_{k-1}|| / ||d_{k-1}|| of
// consecutive per-round global updates — (a) instantaneous values for the
// CNN, (b) CDF for CNN and DenseNet.
//
// Paper shape to reproduce: per-round normalized differences are small (the
// paper reports almost always < 0.01 at round granularity, >90% of updates
// below 0.005 on their testbed). At our scaled workload the absolute values
// are larger (10 local iterations instead of 50 smooth less noise), but the
// distribution must still concentrate at small values, endorsing cross-round
// update similarity.
#include <cstdio>

#include "common.h"
#include "metrics/stats.h"
#include "util/csv.h"

using namespace fedsu;

namespace {

std::vector<double> normdiff_series(const bench::BenchConfig& config) {
  fl::Simulation sim(bench::simulation_options(config),
                     fl::make_protocol(bench::protocol_config(config, "fedavg")));
  metrics::NormalizedDifference nd;
  std::vector<float> prev = sim.global_state();
  for (int r = 0; r < config.rounds; ++r) {
    sim.step();
    const auto& state = sim.global_state();
    std::vector<float> update(state.size());
    for (std::size_t j = 0; j < state.size(); ++j) update[j] = state[j] - prev[j];
    prev = state;
    nd.observe(update);
  }
  return nd.history();
}

}  // namespace

int run(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 40;
  util::Flags flags = bench::make_flags(defaults);
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = 0;

  // (a) instantaneous values, CNN.
  bench::BenchConfig cnn = base;
  cnn.dataset = "emnist";
  const auto cnn_series = normdiff_series(cnn);
  bench::print_header("Fig. 2a: instantaneous normalized difference (CNN)");
  for (std::size_t r = 0; r < cnn_series.size(); ++r) {
    std::printf("  round %3zu  norm-diff %.5f\n", r + 1, cnn_series[r]);
  }

  // (b) CDFs for CNN and DenseNet.
  bench::BenchConfig dense = base;
  dense.dataset = "cifar";
  dense.rounds = std::min(base.rounds, 25);
  const auto dense_series = normdiff_series(dense);

  bench::print_header("Fig. 2b: CDF of normalized difference");
  for (const auto& [name, series] :
       {std::pair<std::string, const std::vector<double>&>{"cnn", cnn_series},
        {"densenet", dense_series}}) {
    metrics::Cdf cdf;
    for (double v : series) cdf.add(v);
    std::printf("%s: p50=%.4f p90=%.4f p99=%.4f | frac<0.05=%.2f frac<0.2=%.2f\n",
                name.c_str(), cdf.quantile(0.5), cdf.quantile(0.9),
                cdf.quantile(0.99), cdf.fraction_below(0.05),
                cdf.fraction_below(0.2));
    for (const auto& [value, fraction] : cdf.curve(11)) {
      std::printf("  cdf %-10s value %.5f  fraction %.2f\n", name.c_str(), value,
                  fraction);
    }
  }

  if (!base.csv_dir.empty()) {
    util::CsvWriter csv(base.csv_dir + "/fig2.csv");
    csv.write_row({"model", "round", "norm_diff"});
    for (std::size_t r = 0; r < cnn_series.size(); ++r) {
      csv.write_row({"cnn", std::to_string(r + 1),
                     util::CsvWriter::field(cnn_series[r])});
    }
    for (std::size_t r = 0; r < dense_series.size(); ++r) {
      csv.write_row({"densenet", std::to_string(r + 1),
                     util::CsvWriter::field(dense_series[r])});
    }
  }
  bench::export_observability(base);
  return 0;
}

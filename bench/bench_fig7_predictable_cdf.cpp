// Fig. 7: CDF over parameters of the fraction of training time each spent
// diagnosed-as-linear (speculative) under FedSU.
//
// Paper shape to reproduce: a heavy upper tail — a large share of the
// parameters spends a substantial share of the run in speculative mode
// (the paper reports >80% of parameters linear for >50% of the time over
// hundreds of rounds; shorter scaled runs shift the curve left but keep the
// heavy-tailed shape).
#include <cstdio>

#include "common.h"
#include "core/fedsu_manager.h"
#include "metrics/stats.h"
#include "util/csv.h"

using namespace fedsu;

int run(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 60;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("datasets", "emnist", "datasets to run (comma list)");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = 0;

  for (const std::string& dataset : {std::string("emnist"), std::string("fmnist"),
                                     std::string("cifar")}) {
    if (flags.get_string("datasets").find(dataset) == std::string::npos) continue;
    bench::BenchConfig config = base;
    config.dataset = dataset;
    if (dataset != "emnist") config.rounds = std::min(config.rounds, 40);

    auto proto = fl::make_protocol(bench::protocol_config(config, "fedsu"));
    auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
    fl::Simulation sim(bench::simulation_options(config), std::move(proto));
    for (int r = 0; r < config.rounds; ++r) sim.step();

    metrics::Cdf cdf;
    const auto& linear_rounds = manager->linear_rounds();
    for (auto rounds : linear_rounds) {
      cdf.add(static_cast<double>(rounds) / manager->rounds_seen());
    }

    bench::print_header("Fig. 7: CDF of predictable-time fraction (" + dataset +
                        ", " + std::to_string(config.rounds) + " rounds)");
    std::printf("median=%.3f p75=%.3f p90=%.3f | frac of params linear >25%% "
                "of time: %.3f, >50%%: %.3f\n",
                cdf.quantile(0.5), cdf.quantile(0.75), cdf.quantile(0.9),
                1.0 - cdf.fraction_below(0.25), 1.0 - cdf.fraction_below(0.5));
    for (const auto& [value, fraction] : cdf.curve(11)) {
      std::printf("  linear-fraction %.3f  cdf %.2f\n", value, fraction);
    }

    if (!config.csv_dir.empty()) {
      util::CsvWriter csv(config.csv_dir + "/fig7_" + dataset + ".csv");
      csv.write_row({"linear_fraction", "cdf"});
      for (const auto& [value, fraction] : cdf.curve(51)) {
        csv.write_row({util::CsvWriter::field(value),
                       util::CsvWriter::field(fraction)});
      }
    }
  }
  bench::export_observability(base);
  return 0;
}

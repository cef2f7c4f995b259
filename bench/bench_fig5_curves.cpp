// Fig. 5: time-to-accuracy curves under FedAvg / CMFL / APF / FedSU, with
// the instantaneous sparsification ratio for APF and FedSU.
//
// Paper shape to reproduce: FedSU's accuracy curve climbs fastest in wall
// (simulated) time, and its sparsification-ratio curve sits far above APF's.
#include <cstdio>

#include "common.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 50;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("schemes", "fedsu,apf,cmfl,fedavg", "schemes to run");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig config = bench::config_from_flags(flags);
  config.eval_every = std::max(1, config.eval_every);

  std::unique_ptr<util::CsvWriter> csv;
  if (!config.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(config.csv_dir + "/fig5_" +
                                            config.dataset + ".csv");
    csv->write_row({"scheme", "round", "time_s", "accuracy", "spars_ratio"});
  }

  bench::print_header("Fig. 5: time-to-accuracy + sparsification ratio (" +
                      config.dataset + ")");
  const std::string schemes = flags.get_string("schemes");
  for (const std::string& scheme : {std::string("fedsu"), std::string("apf"),
                                    std::string("cmfl"), std::string("fedavg")}) {
    if (schemes.find(scheme) == std::string::npos) continue;
    const bench::SchemeRun run = bench::run_scheme(config, scheme);
    std::printf("--- %s ---\n", scheme.c_str());
    for (const auto& rec : run.records) {
      if (!rec.test_accuracy) continue;
      std::printf("  t=%8.1fs  round=%3d  acc=%.3f  ratio=%.3f\n",
                  rec.elapsed_time_s, rec.round, *rec.test_accuracy,
                  rec.sparsification_ratio);
      if (csv) {
        csv->write_row({scheme, std::to_string(rec.round),
                        util::CsvWriter::field(rec.elapsed_time_s),
                        util::CsvWriter::field(*rec.test_accuracy),
                        util::CsvWriter::field(rec.sparsification_ratio)});
      }
    }
    std::printf("  summary: total=%.1fs best_acc=%.3f mean_ratio=%.3f "
                "GB_moved=%.4f\n",
                run.summary.total_time_s, run.summary.best_accuracy,
                run.summary.mean_sparsification_ratio,
                run.summary.total_gigabytes);
  }
  bench::export_observability(config);
  return 0;
}

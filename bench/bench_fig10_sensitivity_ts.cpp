// Fig. 10: sensitivity to the error-feedback threshold T_S.
//
// Paper shape to reproduce: looser T_S -> larger sparsification; but unlike
// T_R, an over-loose T_S (e.g. 100) costs real accuracy, because T_S
// directly bounds the accumulated speculation error.
#include <cstdio>
#include <sstream>

#include "common.h"
#include "util/csv.h"

using namespace fedsu;

int run(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 50;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("ts-values", "0.1,1,10,100",
                   "comma list of T_S values to sweep (paper's set)");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = std::max(1, base.eval_every);

  std::vector<double> values;
  std::stringstream ss(flags.get_string("ts-values"));
  for (std::string item; std::getline(ss, item, ',');) {
    values.push_back(std::stod(item));
  }

  bench::print_header("Fig. 10: FedSU sensitivity to T_S (" + base.dataset + ")");
  std::unique_ptr<util::CsvWriter> csv;
  if (!base.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(base.csv_dir + "/fig10.csv");
    csv->write_row({"t_s", "best_accuracy", "final_accuracy", "mean_spars_ratio",
                    "total_time_s"});
  }
  std::printf("%-10s %10s %10s %12s %12s\n", "T_S", "best acc", "final acc",
              "mean ratio", "total t (s)");
  for (double ts : values) {
    bench::BenchConfig config = base;
    config.t_s = ts;
    const bench::SchemeRun run = bench::run_scheme(config, "fedsu");
    std::printf("%-10.2f %10.3f %10.3f %12.3f %12.1f\n", ts,
                run.summary.best_accuracy, run.summary.final_accuracy,
                run.summary.mean_sparsification_ratio,
                run.summary.total_time_s);
    if (csv) {
      csv->write_row({util::CsvWriter::field(ts),
                      util::CsvWriter::field(run.summary.best_accuracy),
                      util::CsvWriter::field(run.summary.final_accuracy),
                      util::CsvWriter::field(run.summary.mean_sparsification_ratio),
                      util::CsvWriter::field(run.summary.total_time_s)});
    }
  }
  bench::export_observability(base);
  return 0;
}

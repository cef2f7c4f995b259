// Extension bench (DESIGN.md §7): where does FedSU's advantage come from?
//
// Sweeps the client link bandwidth and reports the FedSU / FedAvg total-time
// ratio for a fixed round budget. As bandwidth grows, rounds become
// compute-bound and sparsification buys nothing (ratio -> 1); as it shrinks,
// communication dominates and FedSU's saving approaches its sparsification
// ratio. This locates the crossover the paper's motivation (§II-A: FL links
// are tens of Mbps against multi-MB models) places FL on the comm-bound
// side of.
#include <cstdio>
#include <sstream>

#include "common.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 25;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_string("bandwidths-mbps", "0.05,0.1,0.5,5",
                   "comma list of client bandwidths to sweep");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  base.eval_every = 0;

  std::vector<double> bandwidths;
  std::stringstream ss(flags.get_string("bandwidths-mbps"));
  for (std::string item; std::getline(ss, item, ',');) {
    bandwidths.push_back(std::stod(item));
  }

  bench::print_header("Bandwidth sweep: FedSU vs FedAvg total time (" +
                      base.dataset + ", " + std::to_string(base.rounds) +
                      " rounds)");
  std::printf("%-14s %14s %14s %10s %12s\n", "bw (Mbps)", "FedAvg t (s)",
              "FedSU t (s)", "speedup", "FedSU ratio");
  std::unique_ptr<util::CsvWriter> csv;
  if (!base.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(base.csv_dir + "/bandwidth_sweep.csv");
    csv->write_row({"bandwidth_mbps", "fedavg_time_s", "fedsu_time_s",
                    "speedup", "fedsu_mean_ratio"});
  }
  for (double bw : bandwidths) {
    bench::BenchConfig config = base;
    config.bandwidth_mbps = bw;
    const bench::SchemeRun fedavg = bench::run_scheme(config, "fedavg");
    const bench::SchemeRun fedsu = bench::run_scheme(config, "fedsu");
    const double speedup =
        fedsu.summary.total_time_s > 0.0
            ? fedavg.summary.total_time_s / fedsu.summary.total_time_s
            : 0.0;
    std::printf("%-14.2f %14.1f %14.1f %9.2fx %11.3f\n", bw,
                fedavg.summary.total_time_s, fedsu.summary.total_time_s,
                speedup, fedsu.summary.mean_sparsification_ratio);
    if (csv) {
      csv->write_row({util::CsvWriter::field(bw),
                      util::CsvWriter::field(fedavg.summary.total_time_s),
                      util::CsvWriter::field(fedsu.summary.total_time_s),
                      util::CsvWriter::field(speedup),
                      util::CsvWriter::field(
                          fedsu.summary.mean_sparsification_ratio)});
    }
  }
  bench::export_observability(base);
  return 0;
}

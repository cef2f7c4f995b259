// Table I: time to reach the target accuracy per model, with per-round time
// and number of rounds, for FedAvg / CMFL / APF / FedSU.
//
// Paper shape to reproduce: FedSU has the lowest per-round time and total
// time for every model; its round count stays close to FedAvg's (no
// statistical penalty from sparsification); APF/CMFL land in between.
#include <cstdio>
#include <vector>

#include "common.h"
#include "util/csv.h"

using namespace fedsu;

namespace {

struct ModelTask {
  std::string dataset;
  float target;
  int rounds;
  double lr;
};

}  // namespace

int run(int argc, char** argv) {
  bench::BenchConfig defaults;
  util::Flags flags = bench::make_flags(defaults);
  bench::add_observatory_flags(flags, defaults);
  flags.add_string("models", "cnn,resnet,densenet",
                   "comma list of models to run (cnn,resnet,densenet)");
  flags.add_double("target-cnn", 0.92, "accuracy target for the CNN");
  flags.add_double("target-resnet", 0.75, "accuracy target for the ResNet");
  flags.add_double("target-densenet", 0.85, "accuracy target for the DenseNet");
  flags.add_bool("speedup-vs-serial", false,
                 "rerun each task's fedavg at --threads 1 and report the "
                 "wall-clock speedup of the configured thread count");
  if (!flags.parse(argc, argv)) return 0;
  // Every task sets its own rounds, learning rate and dataset below (one
  // Table I row per model), so these shared flags would be ignored.
  for (const char* name : {"rounds", "lr", "dataset"}) {
    if (flags.given(name)) {
      throw util::UsageError(std::string("--") + name +
                             " is set per model in Table I and cannot be "
                             "given");
    }
  }
  bench::BenchConfig base = bench::config_from_flags(flags);
  const bool speedup_vs_serial = flags.get_bool("speedup-vs-serial");
  bench::RunObservatory observatory(base, "bench_table1_time_to_accuracy",
                                    &flags);

  const std::string models = flags.get_string("models");
  std::vector<ModelTask> tasks;
  if (models.find("cnn") != std::string::npos) {
    tasks.push_back({"emnist", static_cast<float>(flags.get_double("target-cnn")),
                     55, 0.03});
  }
  if (models.find("resnet") != std::string::npos) {
    tasks.push_back({"fmnist",
                     static_cast<float>(flags.get_double("target-resnet")), 45,
                     0.03});
  }
  if (models.find("densenet") != std::string::npos) {
    tasks.push_back({"cifar",
                     static_cast<float>(flags.get_double("target-densenet")),
                     30, 0.03});
  }

  const std::vector<std::string> schemes{"fedsu", "apf", "cmfl", "fedavg"};
  bench::print_header(
      "Table I: time to target accuracy (simulated seconds)");
  std::printf("threads=%d (results are bitwise identical for any count)\n",
              util::ThreadPool::resolve_threads(base.threads));
  std::printf("%-22s %-8s %14s %12s %14s %10s %10s\n", "Model (target)",
              "Scheme", "Per-round (s)", "# of Rounds", "Total time (s)",
              "Best acc", "Wall (s)");

  std::unique_ptr<util::CsvWriter> csv;
  if (!base.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(base.csv_dir + "/table1.csv");
    csv->write_row({"model", "scheme", "per_round_s", "rounds_to_target",
                    "total_time_s", "best_accuracy", "reached"});
  }

  for (const auto& task : tasks) {
    bench::BenchConfig config = base;
    config.dataset = task.dataset;
    config.rounds = task.rounds;
    config.lr = task.lr;
    double fedavg_wall_seconds = 0.0;
    for (const auto& scheme : schemes) {
      const bench::SchemeRun run = bench::run_scheme(
          config, scheme, task.target, &observatory, task.dataset);
      if (scheme == "fedavg") fedavg_wall_seconds = run.wall_seconds;
      const std::string label =
          task.dataset + "/" +
          nn::paper_spec(task.dataset).arch + " (" +
          std::to_string(task.target).substr(0, 4) + ")";
      if (run.rounds_to_target) {
        const double per_round =
            *run.time_to_target_s / *run.rounds_to_target;
        std::printf("%-22s %-8s %14.2f %12d %14.1f %10.3f %10.2f\n",
                    label.c_str(), run.scheme.c_str(), per_round,
                    *run.rounds_to_target, *run.time_to_target_s,
                    run.summary.best_accuracy, run.wall_seconds);
        if (csv) {
          csv->write_row({task.dataset, scheme, util::CsvWriter::field(per_round),
                          util::CsvWriter::field(
                              static_cast<long long>(*run.rounds_to_target)),
                          util::CsvWriter::field(*run.time_to_target_s),
                          util::CsvWriter::field(run.summary.best_accuracy),
                          "1"});
        }
      } else {
        std::printf("%-22s %-8s %14.2f %12s %14s %10.3f %10.2f\n",
                    label.c_str(), run.scheme.c_str(),
                    run.summary.mean_round_time_s, "not reached", "-",
                    run.summary.best_accuracy, run.wall_seconds);
        if (csv) {
          csv->write_row({task.dataset, scheme,
                          util::CsvWriter::field(run.summary.mean_round_time_s),
                          "-1", "-1",
                          util::CsvWriter::field(run.summary.best_accuracy),
                          "0"});
        }
      }
    }
    const int threads = util::ThreadPool::resolve_threads(base.threads);
    if (speedup_vs_serial && threads > 1 && fedavg_wall_seconds > 0.0) {
      // Serial reference: same workload, one thread everywhere (kernel pool
      // included), so the ratio isolates what parallelism buys.
      util::ThreadPool::set_global_threads(1);
      bench::BenchConfig serial = config;
      serial.threads = 1;
      const bench::SchemeRun ref =
          bench::run_scheme(serial, "fedavg", task.target);
      util::ThreadPool::set_global_threads(base.threads);
      std::printf("%-22s fedavg wall: %.2fs at %d threads vs %.2fs serial "
                  "-> %.2fx speedup\n",
                  task.dataset.c_str(), fedavg_wall_seconds, threads,
                  ref.wall_seconds, ref.wall_seconds / fedavg_wall_seconds);
    }
    std::printf("\n");
  }
  observatory.finish(/*ok=*/true);
  bench::export_observability(base);
  return 0;
}

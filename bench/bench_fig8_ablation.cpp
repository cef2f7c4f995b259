// Fig. 8: ablation — FedSU vs FedSU-v1 (linearity diagnosis, no error
// feedback; fixed speculation period) vs FedSU-v2 (neither; random entry
// with a preset probability).
//
// Paper shape to reproduce: v1 sparsifies remarkably less than full FedSU
// and converges slower; v2's accuracy fluctuates and is clearly the worst.
// The fixed period and entry probability for v1/v2 are profiled from the
// standard FedSU run, mirroring the paper's methodology.
#include <cstdio>

#include "common.h"
#include "core/fedsu_manager.h"
#include "util/csv.h"

using namespace fedsu;

int run(int argc, char** argv) {
  bench::BenchConfig defaults;
  defaults.rounds = 50;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_int("fixed-period", 0,
                "override the profiled v1/v2 speculation period (0 = use the "
                "period profiled from the FedSU run; the paper profiles 43/58 "
                "on its long-round workloads)");
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig config = bench::config_from_flags(flags);
  config.eval_every = std::max(1, config.eval_every);

  // Pass 1: standard FedSU, also profiling speculation statistics.
  auto proto = fl::make_protocol(bench::protocol_config(config, "fedsu"));
  auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
  std::size_t starts = 0;
  manager->set_event_hook([&](const core::SpecEvent& e) {
    if (e.start) ++starts;
  });
  fl::Simulation fedsu_sim(bench::simulation_options(config), std::move(proto));
  std::vector<fl::RoundRecord> fedsu_records;
  for (int r = 0; r < config.rounds; ++r) {
    fedsu_records.push_back(fedsu_sim.step());
  }
  long long linear_round_total = 0;
  for (auto v : manager->linear_rounds()) linear_round_total += v;
  int fixed_period =
      starts > 0 ? std::max<int>(1, static_cast<int>(linear_round_total /
                                                     static_cast<long long>(starts)))
                 : 5;
  if (flags.get_int("fixed-period") > 0) {
    fixed_period = static_cast<int>(flags.get_int("fixed-period"));
  }
  const double enter_probability =
      static_cast<double>(starts) /
      (static_cast<double>(manager->predictable_mask().size()) * config.rounds);

  std::printf("profiled from FedSU run: mean speculation period = %d rounds, "
              "entry probability = %.4f%% per parameter-round\n",
              fixed_period, enter_probability * 100.0);

  // Pass 2 and 3: the ablation variants with profiled settings.
  fl::ProtocolConfig v1_config = bench::protocol_config(config, "fedsu-v1");
  v1_config.fedsu_v1.fixed_period = fixed_period;
  fl::Simulation v1_sim(bench::simulation_options(config),
                        fl::make_protocol(v1_config));
  std::vector<fl::RoundRecord> v1_records;
  for (int r = 0; r < config.rounds; ++r) v1_records.push_back(v1_sim.step());

  fl::ProtocolConfig v2_config = bench::protocol_config(config, "fedsu-v2");
  v2_config.fedsu_v2.fixed_period = fixed_period;
  v2_config.fedsu_v2.enter_probability = enter_probability;
  fl::Simulation v2_sim(bench::simulation_options(config),
                        fl::make_protocol(v2_config));
  std::vector<fl::RoundRecord> v2_records;
  for (int r = 0; r < config.rounds; ++r) v2_records.push_back(v2_sim.step());

  bench::print_header("Fig. 8: ablation study (" + config.dataset + ")");
  std::unique_ptr<util::CsvWriter> csv;
  if (!config.csv_dir.empty()) {
    csv = std::make_unique<util::CsvWriter>(config.csv_dir + "/fig8.csv");
    csv->write_row({"variant", "round", "time_s", "accuracy", "spars_ratio"});
  }
  const std::vector<std::pair<std::string, const std::vector<fl::RoundRecord>*>>
      variants{{"FedSU", &fedsu_records},
               {"FedSU-v1", &v1_records},
               {"FedSU-v2", &v2_records}};
  for (const auto& [name, records] : variants) {
    std::printf("--- %s ---\n", name.c_str());
    for (const auto& rec : *records) {
      if (!rec.test_accuracy) continue;
      std::printf("  round=%3d  t=%8.1fs  acc=%.3f  ratio=%.3f\n", rec.round,
                  rec.elapsed_time_s, *rec.test_accuracy,
                  rec.sparsification_ratio);
      if (csv) {
        csv->write_row({name, std::to_string(rec.round),
                        util::CsvWriter::field(rec.elapsed_time_s),
                        util::CsvWriter::field(*rec.test_accuracy),
                        util::CsvWriter::field(rec.sparsification_ratio)});
      }
    }
    const auto summary = metrics::summarize(*records);
    std::printf("  summary: best_acc=%.3f mean_ratio=%.3f\n",
                summary.best_accuracy, summary.mean_sparsification_ratio);
  }
  bench::export_observability(config);
  return 0;
}

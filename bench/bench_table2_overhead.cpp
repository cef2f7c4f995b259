// Table II: computation and memory overheads of FedSU.
//
// Computation inflation: host time of FedSU's synchronize() bookkeeping
// (speculation, error feedback, linearity diagnosis) against plain FedAvg
// aggregation over the same client states, and against one client's local
// training round. Both protocols run bench::SyntheticCohort (8 clients, the
// model's state size) at the bench thresholds (bench::protocol_config), and
// only the rounds after the cohort's warm-up are read: FedSU is measured
// where it speculates. Each sync time is the median and MAD over those
// rounds of the protocol's own "core.fedsu.sync" / "compress.fedavg.sync"
// span, and the per-pass split the medians of FedSU's sub-spans over the
// same rounds. The local round is timed by bench::measure. Memory
// inflation: a freshly initialized FedSuManager's state against the model.
//
// Paper shape to reproduce: both inflations are small — computation time
// inflation in the low single-digit percents of a round, memory inflation
// bounded by a few copies of the model (the paper reports <= 2.15% compute
// and <= 8.27% memory on its workloads).
//
// Takes no flags. Exits 1 unless every timed FedSU round speculates on at
// least half of the parameters.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/fedsu_manager.h"
#include "harness.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/zoo.h"

using namespace fedsu;

namespace {

struct ModelCase {
  const char* name;
  const char* dataset;
  int scaled_image;
};

constexpr ModelCase kCases[] = {
    {"cnn", "emnist", 28},
    {"resnet", "fmnist", 14},
    {"densenet", "cifar", 16},
};

constexpr int kClients = 8;
constexpr int kTimedRounds = 15;
// The speculated fraction every timed FedSU round must reach.
constexpr double kMinSpeculated = 0.5;

// Host time of one client's local round (10 iterations at batch 16) as
// a simulated client runs it, on one pool thread: the round-compute
// reference, in seconds.
bench::Stats local_round(nn::ModelSpec spec) {
  nn::Model model = nn::build_model(spec, util::Rng(1));
  nn::Sgd sgd(model.parameters(), {.learning_rate = 0.01f});
  nn::SoftmaxCrossEntropy loss;
  util::Rng data_rng(5);
  tensor::Tensor batch({16, spec.in_channels, spec.image_size,
                        spec.image_size});
  for (std::size_t j = 0; j < batch.size(); ++j) {
    batch[j] = static_cast<float>(data_rng.normal());
  }
  std::vector<int> labels(16);
  for (auto& y : labels) y = static_cast<int>(data_rng.uniform_index(10));
  bench::Stats stats;
  bench::run_as_pool_task([&] {
    stats = bench::measure([&] {
      for (int it = 0; it < 10; ++it) {
        model.zero_grads();
        loss.forward(model.forward(batch, true), labels);
        model.backward(loss.backward());
        sgd.step();
      }
    });
  });
  return stats;
}

double span_ms(const bench::CohortRound& round, const char* name) {
  const auto it = round.span_ms.find(name);
  return it == round.span_ms.end() ? 0.0 : it->second;
}

}  // namespace

int run(int argc, char** argv) {
  util::Flags flags;
  if (!flags.parse(argc, argv)) return 0;
  bench::BenchConfig config;
  config.clients = kClients;
  // The sync times are span durations, which record only at trace level.
  obs::set_level(obs::Level::kTrace);

  std::printf("\n=== Table II: FedSU computation & memory overheads ===\n");
  std::printf("(%d timed rounds after %d warm-up rounds; sync times are "
              "median (MAD) in ms)\n", kTimedRounds,
              bench::kCohortWarmupRounds);
  std::printf("%-10s %17s %17s %14s %16s %14s\n", "Model", "FedAvg sync",
              "FedSU sync", "Inflation (ms)", "vs round compute",
              "Memory infl.");
  double min_speculated = 1.0, max_speculated = 0.0;
  for (std::size_t ci = 0; ci < std::size(kCases); ++ci) {
    const ModelCase& c = kCases[ci];
    nn::ModelSpec spec = nn::paper_spec(c.dataset);
    spec.image_size = c.scaled_image;
    const std::vector<float> init =
        nn::build_model(spec, util::Rng(1)).state_vector();
    bench::SyntheticCohort cohort(init, kClients,
                                  util::Rng(config.seed).fork(ci + 1));

    std::vector<double> fedavg_ms;
    auto fedavg = fl::make_protocol(bench::protocol_config(config, "fedavg"));
    cohort.run(*fedavg, kTimedRounds, [&](const bench::CohortRound& round) {
      fedavg_ms.push_back(span_ms(round, "compress.fedavg.sync"));
    });

    std::vector<double> fedsu_ms, speculate_ms, feedback_ms, diagnosis_ms;
    auto fedsu = fl::make_protocol(bench::protocol_config(config, "fedsu"));
    cohort.run(*fedsu, kTimedRounds, [&](const bench::CohortRound& round) {
      fedsu_ms.push_back(span_ms(round, "core.fedsu.sync"));
      speculate_ms.push_back(span_ms(round, "core.fedsu.speculate"));
      feedback_ms.push_back(span_ms(round, "core.fedsu.feedback"));
      diagnosis_ms.push_back(span_ms(round, "core.fedsu.diagnosis"));
      const double speculated =
          fedsu->last_round_telemetry().speculated_fraction;
      min_speculated = std::min(min_speculated, speculated);
      max_speculated = std::max(max_speculated, speculated);
    });

    const bench::Stats fedavg_sync = bench::stats_of(fedavg_ms);
    const bench::Stats fedsu_sync = bench::stats_of(fedsu_ms);
    const double inflation_ms =
        std::max(0.0, fedsu_sync.median - fedavg_sync.median);
    const double round_compute_ms = local_round(spec).median * 1e3;
    const double compute_inflation = inflation_ms / round_compute_ms * 100.0;

    core::FedSuManager fresh(kClients,
                             bench::protocol_config(config, "fedsu").fedsu);
    fresh.initialize(init);
    const double memory_inflation =
        static_cast<double>(fresh.state_bytes()) /
        (static_cast<double>(init.size()) * sizeof(float));

    std::printf("%-10s %9.3f (%5.3f) %9.3f (%5.3f) %14.3f %15.2f%% %13.2fx\n",
                c.name, fedavg_sync.median, fedavg_sync.mad, fedsu_sync.median,
                fedsu_sync.mad, inflation_ms, compute_inflation,
                memory_inflation);
    std::printf("%-10s   per-pass split: speculate %.3f ms, feedback %.3f ms, "
                "diagnosis %.3f ms; local round %.2f ms\n", "",
                bench::stats_of(speculate_ms).median,
                bench::stats_of(feedback_ms).median,
                bench::stats_of(diagnosis_ms).median, round_compute_ms);
  }
  std::printf("(memory inflation is FedSU manager state relative to one model "
              "copy; the model itself is a small share of device memory)\n");
  std::printf("FedSU speculated fraction over the timed rounds: %.3f - %.3f\n",
              min_speculated, max_speculated);
  if (min_speculated < kMinSpeculated) {
    std::fprintf(stderr,
                 "FAIL: a timed FedSU round speculated on %.3f of the "
                 "parameters (< %.2f): still in warm-up\n",
                 min_speculated, kMinSpeculated);
    return 1;
  }
  return 0;
}

// Extending the library: plug a custom synchronization protocol into the
// simulator by implementing compress::SyncProtocol.
//
// The demo protocol synchronizes a random subset of coordinates each round
// ("random-k") — a strawman that shows exactly which hooks a real protocol
// (like FedSU) implements: initialize(), synchronize() with byte accounting,
// and the sparsification-ratio metric. synchronize() reads the current
// global model from ctx.global — the simulator owns it; a protocol keeps no
// copy. A protocol with cross-round state (masks, EMAs, residuals) also
// implements serialize()/deserialize() so a checkpointed run resumes
// byte-exact; RandomK draws each round's subset from (seed, round) and so
// has none.
#include <cstdio>

#include "compress/fedavg.h"
#include "compress/protocol.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace fedsu;

namespace {

class RandomK : public compress::SyncProtocol {
 public:
  explicit RandomK(double fraction, std::uint64_t seed = 99)
      : fraction_(fraction), rng_(seed) {}

  std::string name() const override { return "RandomK"; }

  void initialize(std::span<const float> global_state) override {
    params_ = global_state.size();
  }

  compress::SyncResult synchronize(
      const compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override {
    const std::size_t p = params_;
    compress::check_sync_inputs(name(), ctx, client_states, p, true);
    const std::size_t n = client_states.size();
    util::Rng rng = rng_.fork(static_cast<std::uint64_t>(ctx.round) + 1);
    compress::SyncResult result;
    result.new_global.assign(ctx.global.begin(), ctx.global.end());
    std::size_t synced = 0;
    for (std::size_t j = 0; j < p; ++j) {
      if (!rng.bernoulli(fraction_)) continue;  // skip this coordinate
      ++synced;
      double acc = 0.0;
      for (const auto& s : client_states) acc += s[j];
      result.new_global[j] = static_cast<float>(acc / static_cast<double>(n));
    }
    result.bytes_up.assign(n, synced * sizeof(float));
    result.bytes_down.assign(n, synced * sizeof(float));
    result.scalars_up = result.scalars_down = synced * n;
    last_ratio_ = p == 0 ? 0.0 : 1.0 - double(synced) / double(p);
    return result;
  }

  double last_sparsification_ratio() const override { return last_ratio_; }

 private:
  double fraction_;
  util::Rng rng_;  // stream base: only fork()ed per round, never advanced
  std::size_t params_ = 0;
  double last_ratio_ = 0.0;
};

fl::SimulationOptions workload() {
  fl::SimulationOptions options;
  options.model = nn::paper_spec("emnist");
  options.dataset = data::synthetic_preset("emnist");
  options.dataset.train_count = 1200;
  options.dataset.noise = 1.0f;
  options.num_clients = 8;
  options.local.iterations = 10;
  options.local.learning_rate = 0.03f;
  options.eval_every = 2;
  return options;
}

}  // namespace

int run(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 30, "FL rounds")
      .add_double("fraction", 0.3, "random-k synchronized fraction");
  if (!flags.parse(argc, argv)) return 0;
  const int rounds = static_cast<int>(flags.get_int("rounds"));

  // Custom protocol run...
  fl::Simulation random_sim(
      workload(), std::make_unique<RandomK>(flags.get_double("fraction")));
  const auto random_records = random_sim.run(rounds);
  // ...against full synchronization.
  fl::Simulation fedavg_sim(workload(), std::make_unique<compress::FedAvg>());
  const auto fedavg_records = fedavg_sim.run(rounds);

  const auto random_summary = metrics::summarize(random_records);
  const auto fedavg_summary = metrics::summarize(fedavg_records);
  std::printf("RandomK(%.0f%%): best acc %.3f, sim time %.1fs\n",
              100.0 * flags.get_double("fraction"),
              random_summary.best_accuracy, random_summary.total_time_s);
  std::printf("FedAvg:       best acc %.3f, sim time %.1fs\n",
              fedavg_summary.best_accuracy, fedavg_summary.total_time_s);
  std::printf("\nRandom sparsification trades accuracy for bytes blindly; "
              "FedSU (see quickstart) chooses WHICH coordinates to skip using "
              "trajectory linearity, keeping accuracy intact.\n");
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}

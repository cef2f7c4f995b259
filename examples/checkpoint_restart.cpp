// Stop-and-resume: checkpoint an FL run to a run-checkpoint file, then
// restore it into a fresh process-equivalent simulation and keep training.
// The checkpoint is the simulation's full resume frontier — model, FedSU's
// masks, no-checking periods, slopes and EMA statistics, the round counter,
// every client's batch loader, and the churn state — so the resumed run
// continues exactly as the uninterrupted one would (docs/RECOVERY.md).
// Without FedSU's state a restarted run would have to re-learn every
// speculation decision from scratch.
#include <cstdio>
#include <filesystem>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "io/checkpoint.h"
#include "util/flags.h"

using namespace fedsu;

namespace {

fl::SimulationOptions workload() {
  fl::SimulationOptions options;
  options.model = nn::paper_spec("emnist");
  options.dataset = data::synthetic_preset("emnist");
  options.dataset.train_count = 1200;
  options.dataset.noise = 1.0f;
  options.num_clients = 8;
  options.local.iterations = 10;
  options.local.learning_rate = 0.03f;
  options.eval_every = 4;
  return options;
}

fl::ProtocolConfig fedsu_config() {
  fl::ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = 8;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 12, "rounds before AND after the restart")
      .add_string("path", "/tmp/fedsu_example_checkpoint",
                  "checkpoint directory");
  if (!flags.parse(argc, argv)) return 0;
  const int rounds = static_cast<int>(flags.get_int("rounds"));
  const std::string dir = flags.get_string("path");

  // Phase 1: train, then checkpoint.
  double mask_fraction = 0.0;
  std::string file;
  {
    auto proto = fl::make_protocol(fedsu_config());
    auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
    fl::Simulation sim(workload(), std::move(proto));
    sim.run(rounds);
    mask_fraction = manager->predictable_fraction();
    const std::vector<std::uint8_t> payload = sim.snapshot_state();
    file = io::save_run_checkpoint(dir, sim.rounds_completed(), payload);
    std::printf("phase 1: %d rounds trained, accuracy %.3f, "
                "%.1f%% of parameters speculative\n",
                sim.rounds_completed(), sim.evaluate(),
                100.0 * mask_fraction);
    std::printf("checkpoint written to %s (%zu model scalars, %zu payload "
                "bytes)\n",
                file.c_str(), sim.model_state_size(), payload.size());
  }

  // Phase 2: fresh simulation, restore, continue.
  {
    auto proto = fl::make_protocol(fedsu_config());
    auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
    fl::Simulation sim(workload(), std::move(proto));
    sim.restore_state(io::load_run_checkpoint(file));
    std::printf("\nphase 2: restored round %d, %.1f%% of parameters "
                "speculative (was %.1f%%)\n",
                sim.rounds_completed(), 100.0 * manager->predictable_fraction(),
                100.0 * mask_fraction);
    sim.run(rounds);
    std::printf("phase 2: +%d rounds, accuracy %.3f, %.1f%% speculative\n",
                rounds, sim.evaluate(), 100.0 * manager->predictable_fraction());
  }
  // Remove only what this example wrote; the directory goes if now empty.
  std::error_code ec;
  std::filesystem::remove(file, ec);
  std::filesystem::remove(dir, ec);
  return 0;
}

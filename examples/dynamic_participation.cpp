// System dynamicity (paper §V): clients join and leave mid-training.
//
// A late joiner under FedSU must download the current model PLUS the
// predictability mask, no-checking periods and slopes so its local replica
// of the manager state matches everyone else's. This example shows the join
// payload and that training continues smoothly through churn.
#include <cstdio>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "util/flags.h"

using namespace fedsu;

int run(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 36, "total FL rounds");
  if (!flags.parse(argc, argv)) return 0;
  const int rounds = static_cast<int>(flags.get_int("rounds"));

  fl::SimulationOptions options;
  options.model = nn::paper_spec("emnist");
  options.dataset = data::synthetic_preset("emnist");
  options.dataset.train_count = 1200;
  options.dataset.noise = 1.0f;
  options.num_clients = 6;
  options.local.iterations = 10;
  options.local.learning_rate = 0.03f;
  options.eval_every = 3;

  fl::ProtocolConfig protocol;
  protocol.name = "fedsu";
  protocol.num_clients = options.num_clients;
  fl::Simulation sim(options, fl::make_protocol(protocol));

  for (int r = 0; r < rounds; ++r) {
    if (r == rounds / 3) {
      // A new device joins with its own local data.
      data::SyntheticSpec spec = options.dataset;
      spec.seed ^= 0xD1CE;
      spec.train_count = 200;
      auto extra = data::generate_synthetic(spec);
      const auto [id, join_bytes] = sim.add_client(std::move(extra.train));
      const std::size_t model_bytes = sim.model_state_size() * sizeof(float);
      std::printf(">> round %d: client %d joined; downloaded %zu bytes "
                  "(model %zu + FedSU masks/periods/slopes %zu)\n",
                  r, id, join_bytes, model_bytes, join_bytes - model_bytes);
    }
    if (r == 2 * rounds / 3) {
      sim.drop_client(0);
      std::printf(">> round %d: client 0 dropped out\n", r);
    }
    const fl::RoundRecord record = sim.step();
    if (record.test_accuracy) {
      std::printf("round %2d: %d participants, acc %.3f, ratio %4.1f%%\n",
                  record.round, record.num_participants, *record.test_accuracy,
                  100.0 * record.sparsification_ratio);
    }
  }
  std::printf("final accuracy: %.3f\n", sim.evaluate());
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}

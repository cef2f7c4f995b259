// The paper's deployment architecture (Fig. 4): every client runs its own
// FedSU_Manager replica; the server only averages positional payloads.
// Masks, periods and slopes are never transmitted — each client derives
// them from the globally-identical post-sync state.
//
// This example wires per-client managers to real local training (unlike the
// simulator's centralized FedSuManager, which sees all states at once) and
// shows the wire bytes shrinking as speculation kicks in.
#include <cstdio>

#include "core/distributed.h"
#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "nn/zoo.h"
#include "util/flags.h"

using namespace fedsu;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 25, "FL rounds").add_int("clients", 4, "clients");
  if (!flags.parse(argc, argv)) return 0;
  const int rounds = static_cast<int>(flags.get_int("rounds"));
  const int num_clients = static_cast<int>(flags.get_int("clients"));

  // Data + per-client shards.
  data::SyntheticSpec dspec = data::synthetic_preset("emnist");
  dspec.train_count = 800;
  dspec.noise = 1.0f;
  const auto data = data::generate_synthetic(dspec);
  data::PartitionOptions part;
  part.num_clients = num_clients;
  const auto shards = data::dirichlet_partition(data.train, part);

  // One model replica + one FedSU manager + one trainer per client.
  nn::ModelSpec mspec = nn::paper_spec("emnist");
  std::vector<nn::Model> models;
  std::vector<core::FedSuClientManager> managers;
  std::vector<std::unique_ptr<fl::Client>> trainers;
  util::Rng rng(11);
  for (int i = 0; i < num_clients; ++i) {
    nn::ModelSpec spec = mspec;
    models.push_back(nn::build_model(spec, util::Rng(7)));  // identical init
    core::FedSuOptions options;
    options.t_r = 0.05;
    options.t_s = 2.0;
    options.initial_no_check = 2;
    managers.emplace_back(models.back().state_size(), options);
    managers.back().initialize(models.back().state_vector());
    trainers.push_back(std::make_unique<fl::Client>(
        i, data.train.subset(shards[static_cast<std::size_t>(i)]), 16,
        rng.fork(static_cast<std::uint64_t>(i))));
  }
  core::FedSuServer server;

  fl::LocalTrainOptions local;
  local.iterations = 10;
  local.learning_rate = 0.03f;

  const std::size_t dense_bytes =
      models[0].state_size() * sizeof(float);
  std::printf("%d clients, %zu parameters, dense payload %zu bytes\n\n",
              num_clients, models[0].state_size(), dense_bytes);

  for (int round = 0; round < rounds; ++round) {
    // Each client trains locally, then begins its sync.
    std::vector<core::FedSuUpload> uploads;
    for (int i = 0; i < num_clients; ++i) {
      trainers[static_cast<std::size_t>(i)]->train_round(
          models[static_cast<std::size_t>(i)], local);
      uploads.push_back(managers[static_cast<std::size_t>(i)].begin_sync(
          models[static_cast<std::size_t>(i)].state_vector()));
    }
    // Central server: positional averaging (Algorithm 1 lines 1-4 server
    // side). All payloads are identically shaped because masks agree.
    const core::FedSuDownload download = server.aggregate(uploads);
    // Each client finishes its sync and reloads its model.
    for (int i = 0; i < num_clients; ++i) {
      const std::vector<float> next =
          managers[static_cast<std::size_t>(i)].finish_sync(download);
      models[static_cast<std::size_t>(i)].load_state_vector(next);
    }
    if (round % 5 == 4 || round == 0) {
      std::printf("round %2d: upload %6zu bytes/client (%4.1f%% of dense), "
                  "mask %4.1f%% speculative\n",
                  round, uploads[0].wire_bytes(),
                  100.0 * uploads[0].wire_bytes() / dense_bytes,
                  100.0 * managers[0].predictable_fraction());
    }
  }
  // The claim of Fig. 4: every replica holds replica 0's state and mask.
  bool identical = true;
  for (const core::FedSuClientManager& manager : managers) {
    identical = identical && manager.state() == managers[0].state() &&
                manager.predictable_mask() == managers[0].predictable_mask();
  }
  std::printf("\nall %d client replicas identical: %s\n", num_clients,
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

// Compare every bundled synchronization protocol on the same federated
// workload: accuracy, simulated time, and data moved.
//
// This is a light version of the paper's Table I that also covers the
// extra related-work baselines (Top-K, QSGD).
#include <cstdio>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"
#include "util/flags.h"

using namespace fedsu;

int run(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 30, "FL rounds per scheme")
      .add_int("clients", 8, "number of clients")
      .add_string("dataset", "emnist", "emnist | fmnist | cifar")
      .add_double("bandwidth-mbps", 0.25, "client link bandwidth");
  if (!flags.parse(argc, argv)) return 0;

  std::printf("%-10s %10s %12s %14s %12s\n", "scheme", "best acc",
              "sim time (s)", "data moved (MB)", "mean ratio");
  for (const auto& name : fl::known_protocols()) {
    fl::SimulationOptions options;
    options.model = nn::paper_spec(flags.get_string("dataset"));
    options.dataset = data::synthetic_preset(flags.get_string("dataset"));
    if (options.model.arch == "resnet") {
      options.model.image_size = options.dataset.image_size = 14;
    } else if (options.model.arch == "densenet") {
      options.model.image_size = options.dataset.image_size = 16;
    }
    options.dataset.train_count = 1200;
    options.dataset.noise = 1.0f;
    options.num_clients = static_cast<int>(flags.get_int("clients"));
    options.local.iterations = 10;
    options.local.learning_rate = 0.03f;
    options.network.client_bandwidth_bps =
        flags.get_double("bandwidth-mbps") * 1e6;
    options.eval_every = 2;

    fl::ProtocolConfig protocol;
    protocol.name = name;
    protocol.num_clients = options.num_clients;

    fl::Simulation sim(options, fl::make_protocol(protocol));
    const auto records = sim.run(static_cast<int>(flags.get_int("rounds")));
    const metrics::RunSummary summary = metrics::summarize(records);
    std::printf("%-10s %10.3f %12.1f %14.2f %12.3f\n", name.c_str(),
                summary.best_accuracy, summary.total_time_s,
                summary.total_gigabytes * 1e3,
                summary.mean_sparsification_ratio);
  }
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}

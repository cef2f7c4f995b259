// Quickstart: train a small CNN federated across 8 simulated clients with
// FedSU synchronization, and watch accuracy and the sparsification ratio.
//
//   ./quickstart [--rounds N] [--clients N] ...
//
// Observability ("Inspecting a run" in README.md): pass --trace-out /
// --telemetry-out to capture a chrome://tracing timeline and per-round
// JSONL telemetry. With neither the obs subsystem stays off and costs
// nothing.
#include <cstdio>
#include <memory>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/thread_pool.h"

using namespace fedsu;

int run(int argc, char** argv) {
  util::Flags flags;
  flags.add_int("rounds", 20, "FL rounds to run")
      .add_int("clients", 8, "number of clients")
      .add_int("seed", 42, "random seed")
      .add_int("threads", 0,
               "worker threads (0 = hardware concurrency; results are "
               "identical for any value)")
      .add_string("obs-level", "auto",
                  "observability level: auto | off | metrics | trace")
      .add_string("trace-out", "", "write a chrome://tracing timeline JSON")
      .add_string("telemetry-out", "", "write per-round telemetry JSONL")
      .add_bool("async", false,
                "buffered-async rounds: aggregate the first K arrivals, "
                "weight stale updates by 1/(1+s)^alpha (DESIGN.md §11)")
      .add_int("buffer-k", 0,
               "async server buffer size K (0 = half the cohort)")
      .add_double("staleness-alpha", 0.5,
                  "async staleness discount exponent (0 = unweighted)");
  if (!flags.parse(argc, argv)) return 0;
  util::ThreadPool::set_global_threads(
      static_cast<int>(flags.get_int("threads")));

  // Turn instrumentation on only when an output was requested ("auto").
  const std::string trace_out = flags.get_string("trace-out");
  const std::string telemetry_out = flags.get_string("telemetry-out");
  const std::string obs_level = flags.get_string("obs-level");
  if (obs_level != "auto") {
    obs::set_level(obs::parse_level(obs_level));
  } else if (!trace_out.empty()) {
    obs::set_level(obs::Level::kTrace);
  } else if (!telemetry_out.empty()) {
    obs::set_level(obs::Level::kMetrics);
  }

  // 1. Describe the workload: model + synthetic dataset + local training.
  fl::SimulationOptions options;
  options.model = nn::paper_spec("emnist");          // the paper's 2-conv CNN
  options.dataset = data::synthetic_preset("emnist");  // EMNIST stand-in
  options.dataset.train_count = 1200;
  options.dataset.noise = 1.0f;
  options.num_clients = static_cast<int>(flags.get_int("clients"));
  options.dirichlet_alpha = 1.0;  // modest non-IID, as in the paper
  options.local.iterations = 10;
  options.local.learning_rate = 0.03f;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.threads = static_cast<int>(flags.get_int("threads"));
  options.async.enabled = flags.get_bool("async");
  options.async.buffer_k = static_cast<int>(flags.get_int("buffer-k"));
  options.async.staleness_alpha = flags.get_double("staleness-alpha");

  // 2. Pick the synchronization protocol — FedSU with default thresholds.
  fl::ProtocolConfig protocol;
  protocol.name = "fedsu";
  protocol.num_clients = options.num_clients;

  // 3. Run rounds.
  fl::Simulation sim(options, fl::make_protocol(protocol));
  std::unique_ptr<obs::TelemetryWriter> telemetry;
  if (!telemetry_out.empty()) {
    telemetry = std::make_unique<obs::TelemetryWriter>(telemetry_out, "fedsu");
    sim.set_round_hook(telemetry->hook());
  }
  std::printf("model: %s, %zu parameters, %d clients\n",
              options.model.arch.c_str(), sim.model_state_size(),
              options.num_clients);
  for (int r = 0; r < flags.get_int("rounds"); ++r) {
    const fl::RoundRecord record = sim.step();
    std::printf("round %2d: simulated %5.1fs, loss %.3f, sparsification %4.1f%%",
                record.round, record.round_time_s, record.train_loss,
                100.0 * record.sparsification_ratio);
    if (record.test_accuracy) {
      std::printf(", test accuracy %.3f", *record.test_accuracy);
    }
    std::printf("\n");
  }
  std::printf("\ntotal simulated time: %.1fs, final accuracy: %.3f\n",
              sim.elapsed_time_s(), sim.evaluate());

  // 4. Export whatever observability outputs were requested.
  if (!trace_out.empty()) {
    obs::Tracer::global().write_chrome_json(trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}

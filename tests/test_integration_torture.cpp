// Combined-feature integration: the simulator options that individually
// work must also compose — flow-level timing + upload loss + client add/drop
// churn, all under FedSU.
// The round count is CI-tunable: FEDSU_TORTURE_ROUNDS=<n> stretches the
// long tests for the nightly torture job (default 24, the tier-1 budget).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"

namespace fedsu::fl {
namespace {

SimulationOptions torture_options() {
  SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 10;
  options.model.hidden = 16;
  options.dataset.image_size = 10;
  options.dataset.train_count = 500;
  options.dataset.test_count = 150;
  options.num_clients = 6;
  options.local.iterations = 5;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.timing = TimingModel::kFlowLevel;
  options.participation_fraction = 0.7;
  options.faults.upload_loss_probability = 0.15;
  options.eval_every = 4;
  return options;
}

int torture_rounds() {
  if (const char* env = std::getenv("FEDSU_TORTURE_ROUNDS")) {
    const int rounds = std::atoi(env);
    if (rounds >= 8) return rounds;
  }
  return 24;
}

TEST(IntegrationTorture, AllFeaturesComposeUnderFedSu) {
  SimulationOptions options = torture_options();
  ProtocolConfig protocol;
  protocol.name = "fedsu";
  protocol.num_clients = options.num_clients;
  protocol.fedsu.t_r = 0.1;
  Simulation sim(options, make_protocol(protocol));

  const float acc0 = sim.evaluate();
  const int rounds = torture_rounds();
  std::vector<RoundRecord> records;
  for (int r = 0; r < rounds; ++r) {
    records.push_back(sim.step());
    // Mid-run churn, scaled to the run length.
    if (r == rounds / 3) {
      data::SyntheticSpec spec = options.dataset;
      spec.seed ^= 0xFEED;
      spec.train_count = 80;
      auto extra = data::generate_synthetic(spec);
      (void)sim.add_client(std::move(extra.train));
    }
    if (r == 2 * rounds / 3) sim.drop_client(1);
  }
  const auto summary = metrics::summarize(records);
  // Learning still happens under the pile of adverse conditions.
  EXPECT_GT(summary.best_accuracy, acc0 + 0.25f);
  // Time advanced and every record is internally consistent.
  double prev_elapsed = 0.0;
  for (const auto& rec : records) {
    EXPECT_GE(rec.round_time_s, 0.0);
    EXPECT_GT(rec.elapsed_time_s, prev_elapsed);
    prev_elapsed = rec.elapsed_time_s;
    EXPECT_GE(rec.sparsification_ratio, 0.0);
    EXPECT_LE(rec.sparsification_ratio, 1.0);
    EXPECT_GE(rec.uploads_lost, 0);
  }
}

TEST(IntegrationTorture, DeterministicUnderAllFeatures) {
  SimulationOptions options = torture_options();
  ProtocolConfig protocol;
  protocol.name = "fedsu";
  protocol.num_clients = options.num_clients;
  Simulation a(options, make_protocol(protocol));
  Simulation b(options, make_protocol(protocol));
  a.run(10);
  b.run(10);
  EXPECT_EQ(a.global_state(), b.global_state());
  EXPECT_DOUBLE_EQ(a.elapsed_time_s(), b.elapsed_time_s());
}

TEST(IntegrationTorture, BufferedAsyncComposesWithTheGauntlet) {
  // The same adverse pile, run through the buffered-async engine
  // (DESIGN.md §11): overlapping uploads, staleness weighting, loss and
  // churn all at once, with the cumulative dispatch reconciliation intact.
  SimulationOptions options = torture_options();
  options.async.enabled = true;
  options.async.buffer_k = 3;
  options.faults.crash_probability = 0.08;
  options.faults.crash_rounds_max = 2;
  ProtocolConfig protocol;
  protocol.name = "fedsu";
  protocol.num_clients = options.num_clients;
  protocol.fedsu.t_r = 0.1;
  Simulation sim(options, make_protocol(protocol));

  const int rounds = torture_rounds();
  long long selected = 0, consumed = 0, lost = 0, corrupt = 0, deadline = 0,
            unused = 0, final_inflight = 0;
  double prev_elapsed = -1.0;
  for (int r = 0; r < rounds; ++r) {
    if (r == rounds / 3) {
      data::SyntheticSpec spec = options.dataset;
      spec.seed ^= 0xBEEF;
      spec.train_count = 80;
      auto extra = data::generate_synthetic(spec);
      (void)sim.add_client(std::move(extra.train));
    }
    if (r == 2 * rounds / 3) sim.drop_client(1);
    const RoundRecord rec = sim.step();
    ASSERT_TRUE(rec.async.has_value()) << "cycle " << r;
    ASSERT_TRUE(rec.faults.has_value()) << "cycle " << r;
    selected += rec.faults->selected;
    consumed += rec.async->consumed;
    lost += rec.uploads_lost;
    corrupt += rec.faults->corrupt;
    deadline += rec.faults->deadline_missed;
    unused += rec.faults->unused;
    final_inflight = rec.async->inflight;
    EXPECT_GE(rec.round_time_s, 0.0);
    EXPECT_GE(rec.elapsed_time_s, prev_elapsed);
    prev_elapsed = rec.elapsed_time_s;
  }
  EXPECT_EQ(selected,
            consumed + lost + corrupt + deadline + unused + final_inflight);
  EXPECT_GT(consumed, 0);
  for (float v : sim.global_state()) ASSERT_TRUE(std::isfinite(v));
}

TEST(IntegrationTorture, EveryProtocolSurvivesTheGauntlet) {
  for (const auto& name : known_protocols()) {
    SimulationOptions options = torture_options();
    options.eval_every = 0;
    ProtocolConfig protocol;
    protocol.name = name;
    protocol.num_clients = options.num_clients;
    Simulation sim(options, make_protocol(protocol));
    EXPECT_NO_THROW(sim.run(6)) << name;
    for (float v : sim.global_state()) {
      ASSERT_TRUE(std::isfinite(v)) << name;
    }
  }
}

}  // namespace
}  // namespace fedsu::fl

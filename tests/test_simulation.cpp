// Integration tests: full FL rounds through the simulator with every
// protocol, participation selection, simulated time, and dynamicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "compress/fedavg.h"
#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"
#include "nn/loss.h"
#include "tensor/gemm.h"

namespace fedsu::fl {
namespace {

SimulationOptions tiny_options() {
  SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 10;
  options.model.hidden = 16;
  options.dataset.image_size = 10;
  options.dataset.train_count = 400;
  options.dataset.test_count = 120;
  options.num_clients = 4;
  options.local.iterations = 4;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.eval_every = 2;
  return options;
}

std::unique_ptr<compress::SyncProtocol> proto_for(const std::string& name,
                                                  int clients) {
  ProtocolConfig config;
  config.name = name;
  config.num_clients = clients;
  return make_protocol(config);
}

// Sub-batched scoring gives the whole-block loop's bits where the narrow
// kNT path (4 <= m <= 16 rows) is pinned to the packed path's bits: the
// plain GCC build on the avx512vl or avx2-fma GEMM clone (pin_column() in
// tests/test_gemm.cpp). Elsewhere only thread-count invariance is promised.
bool narrow_nt_matches_packed() {
#if !defined(FEDSU_NN_UNPINNED) && !defined(__FMA__)
  const std::string isa = tensor::gemm::isa_name();
  return isa == "avx512vl" || isa == "avx2-fma";
#else
  return false;
#endif
}

// The test-set accuracy as evaluate() computed it with one model over
// whole 64-sample blocks, recomputed through the public model API.
float batch64_accuracy(const SimulationOptions& options,
                       const std::vector<float>& global,
                       const data::Dataset& test) {
  nn::ModelSpec spec = options.model;
  nn::Model model = nn::build_model(spec, util::Rng(options.seed));
  model.load_state_vector(global);
  const std::size_t n = test.size();
  double correct_weighted = 0.0;
  tensor::Tensor batch;
  std::vector<int> labels;
  std::vector<std::size_t> idx;
  for (std::size_t done = 0; done < n;) {
    const std::size_t take = std::min<std::size_t>(64, n - done);
    idx.resize(take);
    std::iota(idx.begin(), idx.end(), done);
    test.gather(idx, batch, labels);
    correct_weighted +=
        static_cast<double>(nn::accuracy(model.forward(batch, false), labels)) *
        take;
    done += take;
  }
  return static_cast<float>(correct_weighted / n);
}

TEST(SimulationEval, EqualsTheWholeBlockLoopBitForBit) {
  // evaluate() scores sub-batches of the training batch size on the pool's
  // replicas. For every architecture, thread count, test-set size (130
  // ends in a 2-row block, 500 in a 52-row one) and batch size, before and
  // after a round of training, it must give the whole-block loop's float.
  // The global model is the same at every thread count (checked here too),
  // so the reference is computed once per round, from the 1-thread run.
  // Where that equality is not pinned, every thread count must still give
  // the 1-thread result.
  const bool pinned = narrow_nt_matches_packed();
  for (const char* arch : {"cnn", "resnet", "densenet"}) {
    for (const int test_count : {400, 500, 130}) {
      // The CNN needs 16x16 inputs; the other two run at 8x8 to stay cheap.
      const int image_size = std::string(arch) == "cnn" ? 16 : 8;
      SimulationOptions options;
      options.model.arch = arch;
      options.model.image_size = image_size;
      options.dataset.image_size = image_size;
      options.dataset.train_count = 96;
      options.dataset.test_count = test_count;
      options.num_clients = 3;
      options.local.iterations = 1;
      options.eval_every = 0;
      const data::Dataset test = data::generate_synthetic(options.dataset).test;
      for (const int batch : {2, 8, 16, 100}) {
        options.local.batch_size = batch;
        std::vector<float> want, globals[2];
        for (const int threads : {1, 2, 4, 8}) {
          options.threads = threads;
          Simulation sim(options, proto_for("fedavg", options.num_clients));
          for (int round = 0; round < 2; ++round) {
            if (round == 1) sim.step();
            const float got = sim.evaluate();
            if (threads == 1) {
              globals[round] = sim.global_state();
              want.push_back(pinned ? batch64_accuracy(options, globals[round],
                                                       test)
                                    : got);
            }
            ASSERT_EQ(sim.global_state(), globals[round]);
            EXPECT_EQ(std::memcmp(&got, &want[round], sizeof got), 0)
                << arch << " test " << test_count << " batch " << batch
                << " threads " << threads << " round " << round << ": "
                << got << " vs " << want[round];
          }
        }
      }
    }
  }
}

TEST(SimulationEval, SubBatchesHaveFourRowsOrAWholeBlock) {
  // The cut evaluate() scores: in order, inside one 64-sample block each,
  // of the clamped batch size but the block's last, and never under 4 rows
  // (the m < 4 GEMM path) unless the whole block is that small.
  for (std::size_t n = 1; n <= 200; ++n) {
    for (const int batch : {1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 100}) {
      const std::size_t rows =
          std::clamp<std::size_t>(static_cast<std::size_t>(batch), 4, 64);
      const auto pieces = eval_sub_batches(n, batch);
      std::size_t next = 0;
      for (std::size_t p = 0; p < pieces.size(); ++p) {
        const auto [begin, end] = pieces[p];
        const std::size_t block_end = std::min(n, begin / 64 * 64 + 64);
        const std::size_t block_size = block_end - begin / 64 * 64;
        ASSERT_EQ(begin, next) << "n " << n << " batch " << batch;
        ASSERT_GT(end, begin);
        EXPECT_LE(end, block_end) << "n " << n << " batch " << batch;
        EXPECT_GE(end - begin, std::min<std::size_t>(4, block_size))
            << "n " << n << " batch " << batch << " piece " << begin;
        if (end < block_end) {
          EXPECT_EQ(end - begin, rows) << "n " << n << " batch " << batch;
        } else {
          EXPECT_LT(end - begin, rows + 4) << "n " << n << " batch " << batch;
        }
        next = end;
      }
      EXPECT_EQ(next, n) << "n " << n << " batch " << batch;
    }
  }
}

TEST(SimulationEval, LogitsOfASampleDoNotDependOnTheRowsBesideIt) {
  // What makes sub-batched scoring exact: every sub-batch of at least 4
  // rows gives each sample the logits the whole 64-row block gives it.
  if (!narrow_nt_matches_packed()) {
    GTEST_SKIP() << "narrow and packed kNT bits are pinned equal only in the "
                    "plain GCC build on an FMA clone";
  }
  util::Rng rng(5);
  tensor::Tensor block({64, 1, 16, 16});
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<float>(rng.normal());
  }
  for (const char* arch : {"cnn", "resnet", "densenet"}) {
    nn::ModelSpec spec;
    spec.arch = arch;
    spec.image_size = 16;
    nn::Model model = nn::build_model(spec, util::Rng(3));
    const tensor::Tensor whole = model.forward(block, false);
    const std::size_t classes = static_cast<std::size_t>(whole.dim(1));
    const std::size_t sample = block.size() / 64;
    for (const int rows : {4, 5, 7, 8, 16, 19, 33}) {
      for (int begin = 0; begin + rows <= 64; begin += rows) {
        tensor::Tensor part({rows, 1, 16, 16});
        std::memcpy(part.data(), block.data() + begin * sample,
                    part.size() * sizeof(float));
        const tensor::Tensor& logits = model.forward(part, false);
        EXPECT_EQ(std::memcmp(logits.data(), whole.data() + begin * classes,
                              logits.size() * sizeof(float)),
                  0)
            << arch << " rows " << begin << ".." << begin + rows;
      }
    }
  }
}

TEST(Simulation, RunsRoundsAndAdvancesTime) {
  Simulation sim(tiny_options(), proto_for("fedavg", 4));
  const auto records = sim.run(4);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_GT(records[0].round_time_s, 0.0);
  EXPECT_GT(records[3].elapsed_time_s, records[0].elapsed_time_s);
  EXPECT_EQ(sim.rounds_completed(), 4);
}

TEST(Simulation, ParticipationFractionHonored) {
  SimulationOptions options = tiny_options();
  options.num_clients = 10;
  options.participation_fraction = 0.7;
  Simulation sim(options, proto_for("fedavg", 10));
  const auto record = sim.step();
  EXPECT_EQ(record.num_participants, 7);
}

TEST(Simulation, EvalCadenceRespected) {
  SimulationOptions options = tiny_options();
  options.eval_every = 3;
  Simulation sim(options, proto_for("fedavg", 4));
  const auto records = sim.run(6);
  EXPECT_FALSE(records[0].test_accuracy.has_value());
  EXPECT_TRUE(records[2].test_accuracy.has_value());
  EXPECT_FALSE(records[3].test_accuracy.has_value());
  EXPECT_TRUE(records[5].test_accuracy.has_value());
}

TEST(Simulation, FedAvgLearnsOverRounds) {
  SimulationOptions options = tiny_options();
  options.eval_every = 5;
  Simulation sim(options, proto_for("fedavg", 4));
  const float acc0 = sim.evaluate();
  const auto records = sim.run(20);
  metrics::RunSummary summary = metrics::summarize(records);
  EXPECT_GT(summary.best_accuracy, acc0 + 0.2f);
}

TEST(Simulation, EveryProtocolCompletesRounds) {
  for (const auto& name : known_protocols()) {
    SimulationOptions options = tiny_options();
    Simulation sim(options, proto_for(name, options.num_clients));
    EXPECT_NO_THROW(sim.run(3)) << name;
    EXPECT_EQ(sim.rounds_completed(), 3) << name;
  }
}

TEST(Simulation, FedSuEventuallySparsifies) {
  SimulationOptions options = tiny_options();
  options.eval_every = 0;  // skip eval for speed
  ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = options.num_clients;
  config.fedsu.t_r = 0.2;  // generous threshold for a short test
  Simulation sim(options, make_protocol(config));
  double best_ratio = 0.0;
  for (int r = 0; r < 30; ++r) {
    const auto record = sim.step();
    best_ratio = std::max(best_ratio, record.sparsification_ratio);
  }
  EXPECT_GT(best_ratio, 0.05);
}

TEST(Simulation, FedSuVariantsReportTheirSpeculatedFraction) {
  // A variant round that skips scalars (sparsification ratio > 0) does so
  // because parameters speculate, and the round record must say so: the
  // telemetry JSONL and the health monitor read speculated_fraction.
  for (const std::string scheme : {"fedsu-v1", "fedsu-v2"}) {
    SimulationOptions options = tiny_options();
    options.eval_every = 0;
    Simulation sim(options, proto_for(scheme, options.num_clients));
    int sparse_rounds = 0;
    for (int r = 0; r < 8; ++r) {
      const auto record = sim.step();
      if (record.sparsification_ratio <= 0.0) continue;
      ++sparse_rounds;
      EXPECT_GT(record.speculated_fraction, 0.0)
          << scheme << " round " << r;
    }
    EXPECT_GT(sparse_rounds, 0) << scheme << " never speculated";
  }
}

TEST(Simulation, FedSuRoundsAreCheaperThanFedAvg) {
  SimulationOptions options = tiny_options();
  options.eval_every = 0;
  ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = options.num_clients;
  config.fedsu.t_r = 0.2;
  Simulation fedsu_sim(options, make_protocol(config));
  Simulation fedavg_sim(options, proto_for("fedavg", options.num_clients));
  std::size_t fedsu_bytes = 0, fedavg_bytes = 0;
  for (int r = 0; r < 25; ++r) {
    fedsu_bytes += fedsu_sim.step().bytes_up;
    fedavg_bytes += fedavg_sim.step().bytes_up;
  }
  EXPECT_LT(fedsu_bytes, fedavg_bytes);
}

TEST(Simulation, RoundHookObservesEveryRound) {
  Simulation sim(tiny_options(), proto_for("fedavg", 4));
  int calls = 0;
  sim.set_round_hook([&](const RoundRecord&) { ++calls; });
  sim.run(5);
  EXPECT_EQ(calls, 5);
}

TEST(Simulation, AddClientJoinsWithState) {
  SimulationOptions options = tiny_options();
  Simulation sim(options, proto_for("fedsu", options.num_clients));
  sim.run(3);
  // Give the joiner a shard carved from fresh synthetic data.
  data::SyntheticSpec spec = options.dataset;
  spec.seed += 99;
  spec.train_count = 60;
  auto extra = data::generate_synthetic(spec);
  const auto [id, join_bytes] = sim.add_client(std::move(extra.train));
  EXPECT_EQ(id, options.num_clients);
  EXPECT_GT(join_bytes, sim.model_state_size() * sizeof(float));
  EXPECT_NO_THROW(sim.run(3));
}

TEST(Simulation, DropClientShrinksParticipation) {
  SimulationOptions options = tiny_options();
  options.num_clients = 4;
  options.participation_fraction = 1.0;
  Simulation sim(options, proto_for("fedavg", 4));
  EXPECT_EQ(sim.step().num_participants, 4);
  sim.drop_client(0);
  EXPECT_EQ(sim.step().num_participants, 3);
  EXPECT_THROW(sim.drop_client(99), std::out_of_range);
}

TEST(Simulation, DeterministicForSeed) {
  SimulationOptions options = tiny_options();
  Simulation a(options, proto_for("fedavg", options.num_clients));
  Simulation b(options, proto_for("fedavg", options.num_clients));
  a.run(3);
  b.run(3);
  EXPECT_EQ(a.global_state(), b.global_state());
  EXPECT_DOUBLE_EQ(a.elapsed_time_s(), b.elapsed_time_s());
}

TEST(Simulation, FlowLevelTimingRunsAndDiffersFromCoarse) {
  SimulationOptions coarse = tiny_options();
  coarse.eval_every = 0;
  SimulationOptions flow = coarse;
  flow.timing = TimingModel::kFlowLevel;
  Simulation a(coarse, proto_for("fedavg", 4));
  Simulation b(flow, proto_for("fedavg", 4));
  a.run(5);
  b.run(5);
  EXPECT_GT(b.elapsed_time_s(), 0.0);
  // Same training trajectory (timing model does not affect learning)...
  EXPECT_EQ(a.global_state(), b.global_state());
  // ...but a different clock.
  EXPECT_NE(a.elapsed_time_s(), b.elapsed_time_s());
}

TEST(Simulation, UploadLossShrinksAggregation) {
  SimulationOptions options = tiny_options();
  options.eval_every = 0;
  options.participation_fraction = 1.0;
  options.faults.upload_loss_probability = 0.4;
  Simulation sim(options, proto_for("fedavg", 4));
  int lost_total = 0;
  int participant_rounds = 0;
  for (int r = 0; r < 15; ++r) {
    const auto record = sim.step();
    lost_total += record.uploads_lost;
    participant_rounds += record.num_participants;
    EXPECT_EQ(record.num_participants + record.uploads_lost, 4);
  }
  EXPECT_GT(lost_total, 5);         // ~0.4 * 60
  EXPECT_GT(participant_rounds, 20);
}

TEST(Simulation, TrainingSurvivesHeavyUploadLoss) {
  SimulationOptions options = tiny_options();
  options.eval_every = 5;
  options.faults.upload_loss_probability = 0.5;
  Simulation sim(options, proto_for("fedsu", 4));
  const float acc0 = sim.evaluate();
  const auto records = sim.run(25);
  EXPECT_GT(metrics::summarize(records).best_accuracy, acc0 + 0.15f);
}

TEST(Simulation, RejectsBadConfig) {
  SimulationOptions options = tiny_options();
  EXPECT_THROW(Simulation(options, nullptr), std::invalid_argument);
  options.participation_fraction = 0.0;
  EXPECT_THROW(Simulation(options, proto_for("fedavg", 4)),
               std::invalid_argument);
  SimulationOptions bad = tiny_options();
  bad.num_clients = 0;
  EXPECT_THROW(Simulation(bad, proto_for("fedavg", 4)), std::invalid_argument);
}

TEST(Simulation, CommTimeDominatedByPayload) {
  // FedAvg ships everything; with a throttled link its round time must
  // exceed a protocol that ships (almost) nothing once masks saturate.
  SimulationOptions options = tiny_options();
  options.eval_every = 0;
  options.network.client_bandwidth_bps = 2e5;  // very slow link
  ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = options.num_clients;
  config.fedsu.t_r = 0.5;  // aggressive masking
  Simulation fedsu_sim(options, make_protocol(config));
  Simulation fedavg_sim(options, proto_for("fedavg", options.num_clients));
  fedsu_sim.run(20);
  fedavg_sim.run(20);
  EXPECT_LT(fedsu_sim.elapsed_time_s(), fedavg_sim.elapsed_time_s());
}

}  // namespace
}  // namespace fedsu::fl

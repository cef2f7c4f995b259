#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "fl/client.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedsu::fl {
namespace {

data::Dataset small_shard(std::uint64_t seed = 3) {
  data::SyntheticSpec spec;
  spec.train_count = 200;
  spec.test_count = 10;
  spec.image_size = 8;
  spec.seed = seed;
  return data::generate_synthetic(spec).train;
}

nn::Model small_model() {
  nn::ModelSpec spec;
  spec.arch = "mlp";
  spec.image_size = 8;
  spec.hidden = 24;
  return nn::build_model(spec, util::Rng(5));
}

TEST(Client, ConstructionAndAccessors) {
  Client client(3, small_shard(), 16, util::Rng(1));
  EXPECT_EQ(client.id(), 3);
  EXPECT_EQ(client.dataset_size(), 200u);
  EXPECT_THROW(Client(-1, small_shard(), 16, util::Rng(1)),
               std::invalid_argument);
}

TEST(Client, TrainRoundMutatesModel) {
  Client client(0, small_shard(), 16, util::Rng(2));
  nn::Model model = small_model();
  const auto before = model.state_vector();
  LocalTrainOptions options;
  options.iterations = 5;
  options.learning_rate = 0.05f;
  const float loss = client.train_round(model, options);
  EXPECT_GT(loss, 0.0f);
  EXPECT_NE(model.state_vector(), before);
}

TEST(Client, RepeatedRoundsReduceLoss) {
  Client client(0, small_shard(), 16, util::Rng(3));
  nn::Model model = small_model();
  LocalTrainOptions options;
  options.iterations = 10;
  options.learning_rate = 0.05f;
  const float first = client.train_round(model, options);
  float last = first;
  for (int r = 0; r < 10; ++r) last = client.train_round(model, options);
  EXPECT_LT(last, 0.7f * first);
}

TEST(Client, ZeroIterationsIsNoOp) {
  Client client(0, small_shard(), 16, util::Rng(4));
  nn::Model model = small_model();
  const auto before = model.state_vector();
  LocalTrainOptions options;
  options.iterations = 0;
  const float loss = client.train_round(model, options);
  EXPECT_EQ(loss, 0.0f);
  EXPECT_EQ(model.state_vector(), before);
}

TEST(Client, DeterministicGivenSameRngAndModel) {
  Client a(0, small_shard(7), 16, util::Rng(9));
  Client b(0, small_shard(7), 16, util::Rng(9));
  nn::Model ma = small_model();
  nn::Model mb = small_model();
  LocalTrainOptions options;
  options.iterations = 6;
  const float la = a.train_round(ma, options);
  const float lb = b.train_round(mb, options);
  EXPECT_EQ(la, lb);
  EXPECT_EQ(ma.state_vector(), mb.state_vector());
}

TEST(Client, DifferentShardsProduceDifferentUpdates) {
  Client a(0, small_shard(7), 16, util::Rng(9));
  Client b(1, small_shard(8), 16, util::Rng(9));
  nn::Model ma = small_model();
  nn::Model mb = small_model();
  LocalTrainOptions options;
  options.iterations = 6;
  a.train_round(ma, options);
  b.train_round(mb, options);
  EXPECT_NE(ma.state_vector(), mb.state_vector());
}

TEST(Client, WeightDecayShrinksNorm) {
  // With a huge weight decay, the parameter norm must shrink fast.
  Client client(0, small_shard(), 16, util::Rng(10));
  nn::Model model = small_model();
  double norm_before = 0.0;
  for (float v : model.state_vector()) norm_before += std::fabs(v);
  LocalTrainOptions options;
  options.iterations = 10;
  options.learning_rate = 0.05f;
  options.weight_decay = 2.0f;
  client.train_round(model, options);
  double norm_after = 0.0;
  for (float v : model.state_vector()) norm_after += std::fabs(v);
  EXPECT_LT(norm_after, 0.7 * norm_before);
}

}  // namespace
}  // namespace fedsu::fl

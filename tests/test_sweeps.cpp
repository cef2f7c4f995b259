// Parameterized property sweeps across module configuration spaces —
// shapes, client counts, and protocol names that unit tests cover only
// pointwise.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "fl/protocol_factory.h"
#include "gradcheck.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedsu {
namespace {

// --- Conv2d configuration sweep: forward shape algebra + gradients hold
// for every (kernel, stride, padding) combination. ---
using ConvParam = std::tuple<int, int, int>;  // kernel, stride, padding

class ConvSweep : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvSweep, ShapeAlgebraAndGradients) {
  const auto [kernel, stride, padding] = GetParam();
  util::Rng rng(100 + kernel * 9 + stride * 3 + padding);
  nn::Conv2d conv(2, 3, kernel, rng, stride, padding);
  const int h = 9, w = 9;
  const int oh = (h + 2 * padding - kernel) / stride + 1;
  if (oh <= 0) GTEST_SKIP();
  const tensor::Tensor x = testing::random_tensor({2, 2, h, w}, rng);
  const tensor::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.dim(2), oh);
  EXPECT_EQ(y.dim(3), oh);
  testing::GradCheckOptions options;
  options.max_coords = 24;
  testing::check_gradients(conv, x, rng, options);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvSweep,
    ::testing::Values(ConvParam{1, 1, 0}, ConvParam{3, 1, 0},
                      ConvParam{3, 1, 1}, ConvParam{3, 2, 1},
                      ConvParam{5, 1, 2}, ConvParam{5, 2, 0},
                      ConvParam{7, 3, 3}));

// --- MaxPool kernel sweep ---
class PoolSweep : public ::testing::TestWithParam<int> {};

TEST_P(PoolSweep, GradientsHold) {
  const int kernel = GetParam();
  util::Rng rng(200 + kernel);
  nn::MaxPool2d pool(kernel);
  testing::check_gradients(pool, testing::random_tensor({1, 2, 8, 8}, rng),
                           rng);
}

INSTANTIATE_TEST_SUITE_P(Kernels, PoolSweep, ::testing::Values(1, 2, 4));

// --- Linear layer dimension sweep ---
using LinearParam = std::tuple<int, int, int>;  // in, out, batch

class LinearSweep : public ::testing::TestWithParam<LinearParam> {};

TEST_P(LinearSweep, GradientsHold) {
  const auto [in, out, batch] = GetParam();
  util::Rng rng(300 + in + out * 7 + batch);
  nn::Linear layer(in, out, rng);
  testing::check_gradients(layer, testing::random_tensor({batch, in}, rng),
                           rng);
}

INSTANTIATE_TEST_SUITE_P(Dims, LinearSweep,
                         ::testing::Values(LinearParam{1, 1, 1},
                                           LinearParam{1, 8, 3},
                                           LinearParam{16, 1, 2},
                                           LinearParam{9, 5, 7}));

// --- Protocol x client-count sweep: every protocol survives 10 rounds on
// any population and preserves state dimension and determinism. ---
using ProtocolParam = std::tuple<std::string, int>;

class ProtocolSweep : public ::testing::TestWithParam<ProtocolParam> {};

TEST_P(ProtocolSweep, RunsAndIsDeterministic) {
  const auto [name, clients] = GetParam();
  auto run_once = [&, name = name, clients = clients]() {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = clients;
    auto proto = fl::make_protocol(config);
    std::vector<float> global(24, 0.0f);
    proto->initialize(global);
    util::Rng rng(17);
    std::vector<float> base(24, 0.0f);
    for (int round = 0; round < 10; ++round) {
      std::vector<std::vector<float>> states;
      compress::RoundContext ctx;
      ctx.round = round;
      ctx.global = base;
      for (int i = 0; i < clients; ++i) {
        ctx.participants.push_back(i);
        std::vector<float> s(24);
        for (std::size_t j = 0; j < s.size(); ++j) {
          s[j] = base[j] + 0.1f + static_cast<float>(0.02 * rng.normal());
        }
        states.push_back(std::move(s));
      }
      std::vector<std::span<const float>> views(states.begin(), states.end());
      auto result = proto->synchronize(ctx, views);
      EXPECT_EQ(result.new_global.size(), 24u);
      base = std::move(result.new_global);
    }
    return base;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b) << name << " is not deterministic";
  for (float v : a) EXPECT_TRUE(std::isfinite(v)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    All, ProtocolSweep,
    ::testing::Combine(::testing::Values("fedavg", "cmfl", "apf", "fedsu",
                                         "fedsu-v1", "fedsu-v2", "topk",
                                         "qsgd", "signsgd"),
                       ::testing::Values(1, 3, 8)),
    [](const ::testing::TestParamInfo<ProtocolParam>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::to_string(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Model zoo sweep: every architecture builds, runs forward + backward
// and round-trips its state vector at several input geometries. ---
using ZooParam = std::tuple<std::string, int, int>;  // arch, image, channels

class ZooSweep : public ::testing::TestWithParam<ZooParam> {};

TEST_P(ZooSweep, BuildTrainStepRoundTrip) {
  auto [arch, image, channels] = GetParam();
  nn::ModelSpec spec;
  spec.arch = arch;
  spec.image_size = image;
  spec.in_channels = channels;
  spec.num_classes = 7;
  nn::Model model = nn::build_model(spec, util::Rng(55));
  tensor::Tensor x({2, channels, image, image});
  util::Rng rng(56);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  const tensor::Tensor logits = model.forward(x, true);
  ASSERT_EQ(logits.shape(), (std::vector<int>{2, 7}));
  // Backward runs and produces grads of matching shapes.
  tensor::Tensor g(logits.shape());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.normal());
  }
  model.zero_grads();
  (void)model.backward(g);
  for (const nn::Param* p : model.parameters()) {
    ASSERT_TRUE(p->grad.same_shape(p->value)) << p->name;
  }
  // Flat state round-trip.
  auto state = model.state_vector();
  for (auto& v : state) v *= 0.5f;
  model.load_state_vector(state);
  EXPECT_EQ(model.state_vector(), state);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZooSweep,
    ::testing::Values(ZooParam{"cnn", 20, 1}, ZooParam{"cnn", 28, 3},
                      ZooParam{"resnet", 12, 1}, ZooParam{"resnet", 16, 3},
                      ZooParam{"densenet", 16, 1}, ZooParam{"densenet", 20, 3},
                      ZooParam{"mlp", 8, 2}, ZooParam{"logistic", 6, 1}),
    [](const ::testing::TestParamInfo<ZooParam>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace fedsu

#include <gtest/gtest.h>

#include <cmath>

#include "compress/apf.h"
#include "compress/cmfl.h"
#include "compress/fedavg.h"
#include "compress/qsgd.h"
#include "compress/signsgd.h"
#include "compress/topk.h"
#include "fl/protocol_factory.h"

namespace fedsu::compress {
namespace {

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  v.reserve(states.size());
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

// The caller tracks the global model across rounds (the protocols keep no
// copy of it) and passes it back in each round's context.
RoundContext ctx_of(int round, int n, std::span<const float> global) {
  RoundContext ctx;
  ctx.round = round;
  ctx.global = global;
  for (int i = 0; i < n; ++i) ctx.participants.push_back(i);
  return ctx;
}

TEST(AverageStates, ComputesElementwiseMean) {
  std::vector<std::vector<float>> states{{1, 2}, {3, 6}};
  const auto mean = average_states(views(states));
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 4.0f);
  EXPECT_THROW(average_states({}), std::invalid_argument);
}

TEST(FedAvgProtocol, FullBytesBothWays) {
  FedAvg proto;
  std::vector<float> global{0, 0, 0};
  proto.initialize(global);
  std::vector<std::vector<float>> states{{1, 2, 3}, {3, 4, 5}};
  const auto result = proto.synchronize(ctx_of(0, 2, global), views(states));
  EXPECT_FLOAT_EQ(result.new_global[0], 2.0f);
  EXPECT_EQ(result.bytes_up[0], 12u);
  EXPECT_EQ(result.bytes_down[1], 12u);
  EXPECT_EQ(result.scalars_up, 6u);
  EXPECT_DOUBLE_EQ(proto.last_sparsification_ratio(), 0.0);
}

TEST(CmflProtocol, FirstRoundEveryoneReports) {
  Cmfl proto;
  std::vector<float> global{0, 0};
  proto.initialize(global);
  std::vector<std::vector<float>> states{{1, 1}, {-1, -1}};
  const auto result = proto.synchronize(ctx_of(0, 2, global), views(states));
  EXPECT_EQ(result.bytes_up[0], 8u);
  EXPECT_EQ(result.bytes_up[1], 8u);
  EXPECT_DOUBLE_EQ(proto.last_sparsification_ratio(), 0.0);
}

TEST(CmflProtocol, IrrelevantClientWithheld) {
  Cmfl proto;
  std::vector<float> global(10, 0.0f);
  proto.initialize(global);
  // Round 0: both push +1 updates -> global update is +1 everywhere.
  std::vector<std::vector<float>> round0{std::vector<float>(10, 1.0f),
                                         std::vector<float>(10, 1.0f)};
  global = proto.synchronize(ctx_of(0, 2, global), views(round0)).new_global;
  // Round 1: client 0 keeps the +1 direction; client 1 reverses everywhere.
  std::vector<float> up(10, 2.0f), down(10, 0.0f);
  std::vector<std::vector<float>> round1{up, down};
  const auto result = proto.synchronize(ctx_of(1, 2, global), views(round1));
  EXPECT_GT(result.bytes_up[0], 0u);   // relevant
  EXPECT_EQ(result.bytes_up[1], 0u);   // withheld
  EXPECT_DOUBLE_EQ(proto.last_sparsification_ratio(), 0.5);
  // Aggregation used only client 0.
  EXPECT_FLOAT_EQ(result.new_global[0], 2.0f);
  const auto& rel = proto.last_relevances();
  EXPECT_DOUBLE_EQ(rel[0], 1.0);
  EXPECT_LT(rel[1], 0.2);
}

TEST(CmflProtocol, AllWithheldKeepsGlobal) {
  Cmfl proto;
  std::vector<float> global(4, 0.0f);
  proto.initialize(global);
  std::vector<std::vector<float>> round0{std::vector<float>(4, 1.0f)};
  global = proto.synchronize(ctx_of(0, 1, global), views(round0)).new_global;
  // Every client reverses: all withheld.
  std::vector<std::vector<float>> round1{std::vector<float>(4, -5.0f)};
  const auto result = proto.synchronize(ctx_of(1, 1, global), views(round1));
  EXPECT_FLOAT_EQ(result.new_global[0], 1.0f);  // unchanged
}

TEST(CmflProtocol, RejectsBadThreshold) {
  CmflOptions options;
  options.relevance_threshold = 1.5;
  EXPECT_THROW(Cmfl{options}, std::invalid_argument);
}

TEST(ApfProtocol, StableParameterGetsFrozen) {
  ApfOptions options;
  options.warmup_rounds = 2;
  options.ema_decay = 0.98;  // zigzag EP floor 0.01, decisively under 0.05
  Apf proto(options);
  std::vector<float> global{0.0f, 0.0f};
  proto.initialize(global);
  // Parameter 0 zigzags around 0 (stable); parameter 1 marches upward.
  // The EP ratio needs ~1/(1-theta) rounds to converge to its floor.
  float x1 = 0.0f;
  bool was_frozen = false;
  for (int r = 0; r < 40; ++r) {
    x1 += 1.0f;
    const float zigzag = (r % 2 == 0) ? 0.1f : -0.1f;
    std::vector<std::vector<float>> states{{zigzag, x1}};
    global = proto.synchronize(ctx_of(r, 1, global), views(states)).new_global;
    if (proto.frozen_fraction() > 0.0) was_frozen = true;
  }
  EXPECT_TRUE(was_frozen);
  EXPECT_LE(proto.frozen_fraction(), 0.5);  // param 1 never frozen
}

TEST(ApfProtocol, FrozenParameterNotTransmitted) {
  ApfOptions options;
  options.warmup_rounds = 1;
  options.ema_decay = 0.98;
  Apf proto(options);
  std::vector<float> global{0.0f};
  proto.initialize(global);
  bool saw_zero_bytes = false;
  for (int r = 0; r < 40; ++r) {
    const float zigzag = (r % 2 == 0) ? 0.1f : -0.1f;
    std::vector<std::vector<float>> states{{zigzag}};
    const auto result = proto.synchronize(ctx_of(r, 1, global), views(states));
    global = result.new_global;
    if (result.bytes_up[0] == 0) saw_zero_bytes = true;
  }
  EXPECT_TRUE(saw_zero_bytes);
}

TEST(ApfProtocol, FreezingPeriodGrowsAdditively) {
  ApfOptions options;
  options.warmup_rounds = 1;
  options.ema_decay = 0.98;
  Apf proto(options);
  std::vector<float> global{0.0f};
  proto.initialize(global);
  // Perfectly zigzagging parameter: once EP converges below the threshold,
  // freezes recur with additively-growing gaps, so sync rounds thin out —
  // the second half of the horizon must sync strictly less than the first.
  int synced_first_half = 0, synced_second_half = 0;
  const int horizon = 60;
  for (int r = 0; r < horizon; ++r) {
    const float zigzag = (r % 2 == 0) ? 0.1f : -0.1f;
    std::vector<std::vector<float>> states{{zigzag}};
    const auto result = proto.synchronize(ctx_of(r, 1, global), views(states));
    global = result.new_global;
    if (result.bytes_up[0] > 0) {
      (r < horizon / 2 ? synced_first_half : synced_second_half) += 1;
    }
  }
  EXPECT_LT(synced_second_half, synced_first_half);
  EXPECT_LT(synced_second_half, 10);
}

TEST(TopKProtocol, UploadsExactlyKCoordinates) {
  TopKOptions options;
  options.fraction = 0.25;
  TopK proto(2, options);
  std::vector<float> global(8, 0.0f);
  proto.initialize(global);
  std::vector<float> s0(8, 0.0f), s1(8, 0.0f);
  s0[3] = 10.0f;
  s1[5] = -7.0f;
  std::vector<std::vector<float>> states{s0, s1};
  const auto result = proto.synchronize(ctx_of(0, 2, global), views(states));
  EXPECT_EQ(result.bytes_up[0], 2u * 8u);  // k=2 entries, 8 bytes each
  EXPECT_FLOAT_EQ(result.new_global[3], 5.0f);   // 10 averaged over 2 clients
  EXPECT_FLOAT_EQ(result.new_global[5], -3.5f);
  EXPECT_DOUBLE_EQ(proto.last_sparsification_ratio(), 0.75);
}

TEST(TopKProtocol, ResidualCarriesSkippedMass) {
  TopKOptions options;
  options.fraction = 0.5;  // k = 1 of 2
  TopK proto(1, options);
  std::vector<float> global{0.0f, 0.0f};
  proto.initialize(global);
  // Round 0: update (1.0, 0.6) -> only coord 0 ships; 0.6 goes to residual.
  std::vector<std::vector<float>> r0{{1.0f, 0.6f}};
  auto result = proto.synchronize(ctx_of(0, 1, global), views(r0));
  EXPECT_FLOAT_EQ(result.new_global[0], 1.0f);
  EXPECT_FLOAT_EQ(result.new_global[1], 0.0f);
  global = result.new_global;
  // Round 1: no further local change; the residual alone must now ship.
  std::vector<std::vector<float>> r1{{result.new_global[0],
                                      result.new_global[1]}};
  result = proto.synchronize(ctx_of(1, 1, global), views(r1));
  EXPECT_FLOAT_EQ(result.new_global[1], 0.6f);
}

TEST(QsgdProtocol, QuantizationIsBoundedError) {
  Qsgd proto;
  std::vector<float> v(100);
  util::Rng rng(3);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  util::Rng qrng(4);
  const auto dq = proto.quantize_dequantize(v, qrng);
  float scale = 0.0f;
  for (float x : v) scale = std::max(scale, std::fabs(x));
  const float step = scale / 127.0f;  // 8 bits -> 127 levels
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::fabs(dq[i] - v[i]), step + 1e-6);
  }
}

TEST(QsgdProtocol, BytesShrinkFourfold) {
  Qsgd proto;
  std::vector<float> global(100, 0.0f);
  proto.initialize(global);
  std::vector<std::vector<float>> states{std::vector<float>(100, 0.5f)};
  const auto result = proto.synchronize(ctx_of(0, 1, global), views(states));
  EXPECT_EQ(result.bytes_up[0], 100u + 4u);  // 1 byte/coord + scale
}

TEST(QsgdProtocol, ZeroVectorStaysZero) {
  Qsgd proto;
  std::vector<float> v(10, 0.0f);
  util::Rng rng(5);
  const auto dq = proto.quantize_dequantize(v, rng);
  for (float x : dq) EXPECT_EQ(x, 0.0f);
}

TEST(SignSgdProtocol, MovesAlongMajoritySign) {
  SignSgd proto;
  std::vector<float> global{0.0f, 0.0f, 0.0f};
  proto.initialize(global);
  // Clients agree up on coord 0, down on coord 1, split on coord 2 (2 up /
  // 1 down -> majority up).
  std::vector<std::vector<float>> states{
      {1.0f, -1.0f, 1.0f}, {1.0f, -1.0f, 1.0f}, {1.0f, -1.0f, -1.0f}};
  const auto result = proto.synchronize(ctx_of(0, 3, global), views(states));
  EXPECT_GT(result.new_global[0], 0.0f);
  EXPECT_LT(result.new_global[1], 0.0f);
  EXPECT_GT(result.new_global[2], 0.0f);
  EXPECT_FLOAT_EQ(result.new_global[0], -result.new_global[1]);
}

TEST(SignSgdProtocol, BytesAreOneBitPerCoordinate) {
  SignSgd proto;
  std::vector<float> global(800, 0.0f);
  proto.initialize(global);
  std::vector<std::vector<float>> states{std::vector<float>(800, 1.0f)};
  const auto result = proto.synchronize(ctx_of(0, 1, global), views(states));
  // Exact serialized mask (ceil(800/8) bytes) + the f32 scale.
  EXPECT_EQ(result.bytes_up[0], (800u + 7) / 8 + sizeof(float));
}

TEST(SignSgdProtocol, TieMeansNoMovement) {
  SignSgd proto;
  std::vector<float> global{0.0f};
  proto.initialize(global);
  std::vector<std::vector<float>> states{{1.0f}, {-1.0f}};
  const auto result = proto.synchronize(ctx_of(0, 2, global), views(states));
  EXPECT_FLOAT_EQ(result.new_global[0], 0.0f);
}

TEST(SignSgdProtocol, RejectsBadOptions) {
  SignSgdOptions options;
  options.step_scale = 0.0;
  EXPECT_THROW(SignSgd{options}, std::invalid_argument);
}

TEST(ProtocolFactory, BuildsEveryKnownProtocol) {
  for (const auto& name : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = 4;
    auto proto = fl::make_protocol(config);
    ASSERT_NE(proto, nullptr) << name;
    std::vector<float> global(16, 0.0f);
    proto->initialize(global);
    std::vector<std::vector<float>> states{std::vector<float>(16, 0.1f),
                                           std::vector<float>(16, 0.2f)};
    RoundContext ctx = ctx_of(0, 2, global);
    const auto result = proto->synchronize(ctx, views(states));
    EXPECT_EQ(result.new_global.size(), 16u) << name;
  }
}

TEST(ProtocolFactory, UnknownNameThrows) {
  fl::ProtocolConfig config;
  config.name = "gossip";
  EXPECT_THROW(fl::make_protocol(config), std::invalid_argument);
}

}  // namespace
}  // namespace fedsu::compress

#include <gtest/gtest.h>

#include <memory>

#include "core/theory.h"
#include "nn/schedule.h"

namespace fedsu {
namespace {

TEST(Schedule, ConstantIsConstant) {
  nn::ConstantLr schedule(0.05f);
  EXPECT_FLOAT_EQ(schedule.lr(0), 0.05f);
  EXPECT_FLOAT_EQ(schedule.lr(1000), 0.05f);
  EXPECT_THROW(schedule.lr(-1), std::invalid_argument);
  EXPECT_THROW(nn::ConstantLr(0.0f), std::invalid_argument);
}

TEST(Schedule, InverseSqrtDecays) {
  nn::InverseSqrtLr schedule(0.1f);
  EXPECT_FLOAT_EQ(schedule.lr(0), 0.1f);
  EXPECT_NEAR(schedule.lr(3), 0.05f, 1e-6);
  EXPECT_NEAR(schedule.lr(99), 0.01f, 1e-6);
  EXPECT_GT(schedule.lr(10), schedule.lr(11));
}

TEST(Schedule, InverseSqrtWarmupRampsLinearly) {
  nn::InverseSqrtLr schedule(0.1f, /*warmup=*/4);
  EXPECT_NEAR(schedule.lr(0), 0.025f, 1e-6);
  EXPECT_NEAR(schedule.lr(1), 0.05f, 1e-6);
  EXPECT_NEAR(schedule.lr(3), 0.1f, 1e-6);
  EXPECT_NEAR(schedule.lr(4), 0.1f, 1e-6);  // first post-warmup round
}

// Eq. 13 (paper): a convergent schedule drives sum(lr^2)/sum(lr) -> 0.
TEST(Schedule, Eq13RatioShrinksForInverseSqrt) {
  nn::InverseSqrtLr schedule(0.1f);
  const double r100 = nn::eq13_ratio(schedule, 100);
  const double r10000 = nn::eq13_ratio(schedule, 10000);
  EXPECT_LT(r10000, r100 * 0.5);
}

TEST(Schedule, Eq13RatioConstantForConstantLr) {
  nn::ConstantLr schedule(0.1f);
  // float32 lr, double accumulation: tolerance covers the cast.
  EXPECT_NEAR(nn::eq13_ratio(schedule, 100), 0.1, 1e-7);
  EXPECT_NEAR(nn::eq13_ratio(schedule, 10000), 0.1, 1e-7);
}

TEST(Theory, BoundShrinksWithHorizonUnderEq13Schedule) {
  core::TheoryParams params;
  nn::InverseSqrtLr schedule(0.1f);
  const auto b100 = core::theorem1_bound(params, schedule, 100);
  const auto b10000 = core::theorem1_bound(params, schedule, 10000);
  EXPECT_LT(b10000.total(), b100.total());
  EXPECT_GT(b100.total(), 0.0);
}

TEST(Theory, SpeculationTermScalesWithTsSquared) {
  core::TheoryParams params;
  nn::ConstantLr schedule(0.1f);
  params.t_s = 1.0;
  const auto b1 = core::theorem1_bound(params, schedule, 100);
  params.t_s = 10.0;
  const auto b10 = core::theorem1_bound(params, schedule, 100);
  EXPECT_NEAR(b10.speculation_term / b1.speculation_term, 100.0, 1e-6);
  // The other terms are T_S-independent.
  EXPECT_DOUBLE_EQ(b1.optimality_term, b10.optimality_term);
  EXPECT_DOUBLE_EQ(b1.variance_term, b10.variance_term);
}

TEST(Theory, ZeroTsRecoversPlainSgdBound) {
  core::TheoryParams params;
  params.t_s = 0.0;
  nn::ConstantLr schedule(0.1f);
  const auto bound = core::theorem1_bound(params, schedule, 50);
  EXPECT_DOUBLE_EQ(bound.speculation_term, 0.0);
  EXPECT_GT(bound.variance_term, 0.0);
}

TEST(Theory, Eq7BoundFormula) {
  EXPECT_DOUBLE_EQ(core::eq7_deviation_bound(0.1, 2.0, 4.0),
                   0.1 * 0.1 * 2.0 * 2.0 * 4.0);
  EXPECT_THROW(core::eq7_deviation_bound(-0.1, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Theory, RejectsBadInputs) {
  core::TheoryParams params;
  nn::ConstantLr schedule(0.1f);
  EXPECT_THROW(core::theorem1_bound(params, schedule, 0),
               std::invalid_argument);
  params.beta = -1.0;
  EXPECT_THROW(core::theorem1_bound(params, schedule, 10),
               std::invalid_argument);
}

// Property sweep: for every bundled schedule, lr stays positive and the
// Theorem 1 bound is finite over long horizons.
class ScheduleSweep
    : public ::testing::TestWithParam<std::shared_ptr<const nn::LrSchedule>> {};

TEST_P(ScheduleSweep, PositiveAndBoundedOverHorizon) {
  const nn::LrSchedule& schedule = *GetParam();
  for (int k : {0, 1, 7, 63, 511}) {
    EXPECT_GT(schedule.lr(k), 0.0f) << schedule.name() << " round " << k;
    EXPECT_LE(schedule.lr(k), 0.05f + 1e-6) << schedule.name();
  }
  core::TheoryParams params;
  const auto bound = core::theorem1_bound(params, schedule, 512);
  EXPECT_GT(bound.total(), 0.0);
  EXPECT_LT(bound.total(), 1e6);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ScheduleSweep,
    ::testing::Values(std::make_shared<const nn::ConstantLr>(0.05f),
                      std::make_shared<const nn::InverseSqrtLr>(0.05f)));

}  // namespace
}  // namespace fedsu

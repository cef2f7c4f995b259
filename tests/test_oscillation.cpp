#include <gtest/gtest.h>

#include <cmath>

#include "core/oscillation.h"
#include "util/rng.h"

namespace fedsu::core {
namespace {

// Feeds the tracker the first differences of a value sequence.
double feed_values(OscillationTracker& tracker, std::size_t j,
                   const std::vector<double>& values) {
  double r = 1.0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    r = tracker.observe(j, static_cast<float>(values[i] - values[i - 1]));
  }
  return r;
}

TEST(Oscillation, PerfectlyLinearGivesZero) {
  OscillationTracker tracker(1);
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(3.0 + 0.5 * i);
  const double r = feed_values(tracker, 0, values);
  EXPECT_NEAR(r, 0.0, 1e-6);
  EXPECT_TRUE(tracker.ready(0));
}

TEST(Oscillation, NoisyLinearStaysSmall) {
  OscillationTracker tracker(1);
  util::Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(1.0 + 0.2 * i + 0.01 * rng.normal());
  }
  const double r = feed_values(tracker, 0, values);
  EXPECT_LT(r, 0.5);  // noise second-differences oscillate around 0
}

TEST(Oscillation, AcceleratingTrajectoryIsNotLinear) {
  OscillationTracker tracker(1);
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) values.push_back(0.01 * i * i);
  const double r = feed_values(tracker, 0, values);
  // Second differences are constant-positive: |EMA| == EMA(|.|) -> R ~ 1.
  EXPECT_GT(r, 0.9);
}

TEST(Oscillation, ExponentialDecayIsNotLinear) {
  OscillationTracker tracker(1);
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) values.push_back(std::exp(-0.2 * i));
  const double r = feed_values(tracker, 0, values);
  EXPECT_GT(r, 0.5);
}

TEST(Oscillation, StagnationIsPerfectlyLinear) {
  // APF's "converged" pattern is the slope-0 special case (§II-B).
  OscillationTracker tracker(1);
  std::vector<double> values(20, 4.2);
  const double r = feed_values(tracker, 0, values);
  EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(Oscillation, NotReadyBeforeWarmup) {
  OscillationOptions options;
  options.warmup = 5;
  OscillationTracker tracker(1, options);
  tracker.observe(0, 1.0f);  // primes g_prev
  for (int i = 0; i < 4; ++i) {
    tracker.observe(0, 1.0f);
    EXPECT_FALSE(tracker.ready(0));
  }
  tracker.observe(0, 1.0f);
  EXPECT_TRUE(tracker.ready(0));
}

TEST(Oscillation, RatioIsOneBeforeAnySecondDifference) {
  OscillationTracker tracker(2);
  EXPECT_DOUBLE_EQ(tracker.ratio(0), 1.0);
  tracker.observe(0, 0.5f);
  EXPECT_DOUBLE_EQ(tracker.ratio(0), 1.0);
}

TEST(Oscillation, ResetForgetsHistory) {
  OscillationTracker tracker(1);
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(0.5 * i);
  feed_values(tracker, 0, values);
  EXPECT_TRUE(tracker.ready(0));
  tracker.reset(0);
  EXPECT_FALSE(tracker.ready(0));
  EXPECT_DOUBLE_EQ(tracker.ratio(0), 1.0);
}

TEST(Oscillation, IndependentParameters) {
  OscillationTracker tracker(2);
  for (int i = 0; i < 20; ++i) {
    tracker.observe(0, 0.5f);                              // linear
    tracker.observe(1, (i % 2 == 0) ? 1.0f : -1.0f);       // alternating g
  }
  EXPECT_LT(tracker.ratio(0), 0.01);
  // Alternating gradient: g2 = +/-2 alternating -> |EMA| << EMA|.| -> small R
  // too... but the alternation makes successive g2 cancel. Verify it is at
  // least far from the quadratic case.
  EXPECT_LT(tracker.ratio(1), 0.5);
}

TEST(Oscillation, BoundsAndErrors) {
  OscillationTracker tracker(1);
  EXPECT_THROW(tracker.observe(5, 1.0f), std::out_of_range);
  EXPECT_THROW(tracker.ratio(5), std::out_of_range);
  EXPECT_THROW(tracker.reset(5), std::out_of_range);
  OscillationOptions bad;
  bad.ema_decay = 1.5;
  EXPECT_THROW(OscillationTracker(1, bad), std::invalid_argument);
  bad.ema_decay = std::nan("");
  EXPECT_THROW(OscillationTracker(1, bad), std::invalid_argument);
  bad.ema_decay = 0.9;
  bad.warmup = 0;
  EXPECT_THROW(OscillationTracker(1, bad), std::invalid_argument);
}

TEST(Oscillation, StateBytesIsConstantPerParameter) {
  OscillationTracker small(10);
  OscillationTracker large(1000);
  EXPECT_EQ(large.state_bytes(), 100 * small.state_bytes());
}

// Property sweep: for pure sinusoidal gradients of varying frequency, R must
// stay clearly above the linearity threshold; for linear-plus-noise with
// shrinking noise, R must shrink towards 0.
class OscillationNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(OscillationNoiseSweep, NoiseControlsRatioScale) {
  const double noise = GetParam();
  OscillationTracker tracker(1);
  util::Rng rng(42);
  double r = 1.0;
  double value = 0.0;
  for (int i = 0; i < 300; ++i) {
    value += 0.1 + noise * rng.normal();
    r = tracker.observe(0, static_cast<float>(
                               0.1 + noise * rng.normal()));
  }
  if (noise <= 1e-6) {
    EXPECT_LT(r, 1e-4);
  } else {
    // With i.i.d. noise the EMA of g' concentrates near 0 while EMA|g'| does
    // not: R stays bounded away from 1.
    EXPECT_LT(r, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, OscillationNoiseSweep,
                         ::testing::Values(0.0, 1e-4, 1e-2, 1e-1, 1.0));

// Property sweep over EMA decay: the ratio of a linear trajectory must be
// ~0 regardless of theta.
class OscillationDecaySweep : public ::testing::TestWithParam<double> {};

TEST_P(OscillationDecaySweep, LinearAlwaysDiagnosedLinear) {
  OscillationOptions options;
  options.ema_decay = GetParam();
  OscillationTracker tracker(1, options);
  double r = 1.0;
  for (int i = 0; i < 50; ++i) r = tracker.observe(0, 0.25f);
  EXPECT_LT(r, 1e-6) << "theta=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Decays, OscillationDecaySweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.99));

}  // namespace
}  // namespace fedsu::core

#include <gtest/gtest.h>

#include <vector>

#include "tensor/init.h"
#include "tensor/tensor.h"
#include "tensor/vectorized.h"
#include "util/rng.h"

namespace fedsu::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ShapeDataMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), std::invalid_argument);
}

TEST(Tensor, NegativeDimThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, At2dRowMajor) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(0, 2), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 2), 5.0f);
}

TEST(Tensor, At4dNchw) {
  Tensor t({2, 2, 2, 2});
  t.at(1, 1, 1, 1) = 9.0f;
  EXPECT_EQ(t[15], 9.0f);
  t.at(0, 1, 0, 1) = 4.0f;
  EXPECT_EQ(t[5], 4.0f);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[2], 2.5f);
  t.zero();
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, ShapeString) {
  EXPECT_EQ(Tensor({2, 3, 4}).shape_string(), "[2, 3, 4]");
}

TEST(Tensor, ResizeReusesCapacityAndZeroFillsGrowth) {
  Tensor t({4, 8});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = 1.0f;
  const float* big = t.data();
  // Shrink: same buffer, surviving elements keep their values.
  t.resize({2, 8});
  EXPECT_EQ(t.data(), big);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t[0], 1.0f);
  // Grow back within capacity: still the same buffer, new tail is zero.
  t.resize({4, 8});
  EXPECT_EQ(t.data(), big);
  EXPECT_EQ(t[31], 0.0f);
}

// The inline kernels in tensor/vectorized.h, including unaligned lengths
// that force scalar epilogues.
TEST(Vectorized, ElementwiseKernels) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1000}, std::size_t{1003}}) {
    util::Rng rng(n);
    std::vector<float> y(n), x(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      x[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    std::vector<float> work = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = y[i] + 3.5f * x[i];
    vec::axpy(work.data(), 3.5f, x.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_FLOAT_EQ(work[i], expected[i]);

    work = y;
    vec::add(work.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_FLOAT_EQ(work[i], y[i] + x[i]);

    vec::fill(work.data(), 7.0f, n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(work[i], 7.0f);
  }
}

TEST(Init, KaimingVarianceMatchesFanIn) {
  util::Rng rng(3);
  Tensor t({200, 50});
  kaiming_normal(t, 50, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double var = sq / static_cast<double>(t.size());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.004);
}

TEST(Init, RejectsBadFan) {
  util::Rng rng(5);
  Tensor t({4});
  EXPECT_THROW(kaiming_normal(t, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace fedsu::tensor

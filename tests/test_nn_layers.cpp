#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "gradcheck.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsu::nn {
namespace {

using fedsu::testing::check_gradients;
using fedsu::testing::random_tensor;

TEST(Linear, ForwardShapeAndBias) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  const tensor::Tensor x = random_tensor({5, 4}, rng);
  const tensor::Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{5, 3}));
}

TEST(Linear, RejectsWrongInputWidth) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  EXPECT_THROW(layer.forward(tensor::Tensor({2, 5}), true),
               std::invalid_argument);
}

TEST(Linear, GradCheck) {
  util::Rng rng(2);
  Linear layer(6, 4, rng);
  check_gradients(layer, random_tensor({3, 6}, rng), rng);
}

TEST(Linear, GradCheckNoBias) {
  util::Rng rng(3);
  Linear layer(5, 2, rng, /*bias=*/false);
  std::vector<Param*> params;
  layer.collect_params(params);
  EXPECT_EQ(params.size(), 1u);
  check_gradients(layer, random_tensor({2, 5}, rng), rng);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  tensor::Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const tensor::Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLU, GradCheck) {
  util::Rng rng(4);
  ReLU relu;
  // Shift inputs away from 0 to avoid the kink in finite differences.
  tensor::Tensor x = random_tensor({3, 7}, rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) < 0.1f) x[i] += 0.3f;
  }
  check_gradients(relu, x, rng);
}

TEST(Flatten, RoundTripsShape) {
  util::Rng rng(6);
  Flatten flatten;
  const tensor::Tensor x = random_tensor({2, 3, 4, 4}, rng);
  const tensor::Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 48}));
  const tensor::Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Conv2d, OutputShape) {
  util::Rng rng(7);
  Conv2d conv(3, 8, 5, rng, /*stride=*/1, /*padding=*/0);
  const tensor::Tensor x = random_tensor({2, 3, 12, 12}, rng);
  const tensor::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 8, 8}));
}

TEST(Conv2d, PaddedStridedShape) {
  util::Rng rng(8);
  Conv2d conv(2, 4, 3, rng, /*stride=*/2, /*padding=*/1);
  const tensor::Tensor x = random_tensor({1, 2, 9, 9}, rng);
  const tensor::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 4, 5, 5}));
}

TEST(Conv2d, GradCheckPlain) {
  util::Rng rng(9);
  Conv2d conv(2, 3, 3, rng);
  check_gradients(conv, random_tensor({2, 2, 6, 6}, rng), rng);
}

TEST(Conv2d, GradCheckPaddedStrided) {
  util::Rng rng(10);
  Conv2d conv(2, 3, 3, rng, /*stride=*/2, /*padding=*/1);
  check_gradients(conv, random_tensor({2, 2, 7, 7}, rng), rng);
}

TEST(Conv2d, GradCheckNoBias) {
  util::Rng rng(11);
  Conv2d conv(1, 2, 5, rng, 1, 0, /*bias=*/false);
  check_gradients(conv, random_tensor({1, 1, 8, 8}, rng), rng);
}

TEST(Conv2d, MatchesManualConvolution) {
  util::Rng rng(12);
  Conv2d conv(1, 1, 3, rng, 1, 0, /*bias=*/false);
  std::vector<Param*> params;
  conv.collect_params(params);
  // Identity-ish kernel: 1 at center.
  params[0]->value.fill(0.0f);
  params[0]->value[4] = 1.0f;
  const tensor::Tensor x = random_tensor({1, 1, 5, 5}, rng);
  const tensor::Tensor y = conv.forward(x, true);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(y.at(0, 0, r, c), x.at(0, 0, r + 1, c + 1));
    }
  }
}

// Conv2d against a double-precision direct convolution, for every staging
// branch of im2col/col2im: padding at and beyond the kernel (whole rows and
// columns of zeros), strides above the kernel (skipped input), one and many
// output channels, a 1x1 output, and a batch that fans out on the pool.
TEST(Conv2d, MatchesNaiveConvolutionSweep) {
  struct Case {
    int in_c, out_c, kernel, stride, padding, h, w, batch;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 1, 6, 6, 2},   {2, 11, 5, 1, 2, 7, 7, 3},
      {2, 4, 3, 3, 1, 8, 8, 2},   {2, 3, 2, 3, 0, 7, 7, 2},
      {1, 4, 3, 1, 3, 4, 4, 2},   {2, 4, 2, 1, 2, 3, 5, 2},
      {3, 5, 3, 2, 4, 5, 6, 2},   {16, 9, 1, 1, 0, 4, 4, 2},
      {2, 4, 5, 1, 1, 3, 3, 2},   {2, 3, 3, 4, 3, 9, 5, 1},
      {4, 16, 5, 1, 0, 12, 12, 16},
  };
  const int threads = util::ThreadPool::global().size();
  util::ThreadPool::set_global_threads(4);
  util::Rng rng(21);
  for (const Case& c : cases) {
    const std::string label =
        "in " + std::to_string(c.in_c) + " out " + std::to_string(c.out_c) +
        " k " + std::to_string(c.kernel) + " s " + std::to_string(c.stride) +
        " p " + std::to_string(c.padding) + " " + std::to_string(c.h) + "x" +
        std::to_string(c.w);
    Conv2d conv(c.in_c, c.out_c, c.kernel, rng, c.stride, c.padding);
    Conv2d params_only(c.in_c, c.out_c, c.kernel, rng, c.stride, c.padding);
    std::vector<Param*> params, only_params;
    conv.collect_params(params);
    params_only.collect_params(only_params);
    for (std::size_t i = 0; i < params[1]->value.size(); ++i) {
      params[1]->value[i] = static_cast<float>(rng.normal());
    }
    only_params[0]->value = params[0]->value;
    only_params[1]->value = params[1]->value;
    const tensor::Tensor x =
        random_tensor({c.batch, c.in_c, c.h, c.w}, rng);
    const int oh = conv.out_height(c.h), ow = conv.out_width(c.w);
    const tensor::Tensor g = random_tensor({c.batch, c.out_c, oh, ow}, rng);

    zero_grads(params);
    zero_grads(only_params);
    const tensor::Tensor y = conv.forward(x, /*train=*/true);
    const tensor::Tensor dx = conv.backward(g);
    (void)params_only.forward(x, /*train=*/true);
    params_only.backward_params(g);

    const int k = c.kernel;
    const std::size_t wsize =
        static_cast<std::size_t>(c.out_c) * c.in_c * k * k;
    std::vector<double> want_y(y.size(), 0.0), want_dx(x.size(), 0.0),
        want_dw(wsize, 0.0), want_db(static_cast<std::size_t>(c.out_c), 0.0);
    const float* wv = params[0]->value.data();
    for (int n = 0; n < c.batch; ++n) {
      for (int oc = 0; oc < c.out_c; ++oc) {
        for (int orow = 0; orow < oh; ++orow) {
          for (int ocol = 0; ocol < ow; ++ocol) {
            const std::size_t yi =
                ((static_cast<std::size_t>(n) * c.out_c + oc) * oh + orow) *
                    ow + ocol;
            const double gv = g[yi];
            double acc = params[1]->value[static_cast<std::size_t>(oc)];
            want_db[static_cast<std::size_t>(oc)] += gv;
            for (int ic = 0; ic < c.in_c; ++ic) {
              for (int kr = 0; kr < k; ++kr) {
                const int r = orow * c.stride + kr - c.padding;
                if (r < 0 || r >= c.h) continue;
                for (int kc = 0; kc < k; ++kc) {
                  const int col = ocol * c.stride + kc - c.padding;
                  if (col < 0 || col >= c.w) continue;
                  const std::size_t xi =
                      ((static_cast<std::size_t>(n) * c.in_c + ic) * c.h +
                       r) * c.w + col;
                  const std::size_t wi =
                      ((static_cast<std::size_t>(oc) * c.in_c + ic) * k +
                       kr) * k + kc;
                  acc += static_cast<double>(wv[wi]) * x[xi];
                  want_dx[xi] += static_cast<double>(wv[wi]) * gv;
                  want_dw[wi] += gv * x[xi];
                }
              }
            }
            want_y[yi] = acc;
          }
        }
      }
    }
    auto expect_near = [&](const tensor::Tensor& got,
                           const std::vector<double>& want, const char* what) {
      ASSERT_EQ(got.size(), want.size()) << label << " " << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-4 * (1.0 + std::fabs(want[i])))
            << label << " " << what << "[" << i << "]";
      }
    };
    expect_near(y, want_y, "y");
    expect_near(dx, want_dx, "dx");
    expect_near(params[0]->grad, want_dw, "dW");
    expect_near(params[1]->grad, want_db, "db");
    expect_near(only_params[0]->grad, want_dw, "backward_params dW");
    expect_near(only_params[1]->grad, want_db, "backward_params db");
  }
  util::ThreadPool::set_global_threads(threads);
}

// Index of the recorded pin column for this build, or -1: the rule of
// test_nn_step.cpp (plain GCC builds, avx512vl or avx2-fma clone).
int pin_column() {
#if !defined(FEDSU_NN_UNPINNED) && !defined(__FMA__)
  const std::string isa = tensor::gemm::isa_name();
  if (isa == "avx512vl") return 0;
  if (isa == "avx2-fma") return 1;
#endif
  return -1;
}

// 64-bit FNV-1a over every bit of a tensor.
void fnv1a(std::uint64_t& hash, const tensor::Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
}

// Every bit Conv2d's column moves (im2col, col2im) feed, over kernel
// {1, 2, 3, 5} x stride {1, 2, 3} x padding {0, 1, 2} x width {1, 7, 12,
// 16, 17, 33} (every case with a non-empty output): the forward output,
// dL/dx, dW and db of two 7-row samples whose inputs and gradients carry
// -0 and subnormal lanes. The GEMMs between the moves make the bits per
// ISA (DESIGN.md §5b), so the hash is pinned per clone.
TEST(Conv2d, ColumnMovesAreBitwisePinned) {
  const int column = pin_column();
  if (column < 0) GTEST_SKIP() << "no pins for this compiler, flags or ISA";
  const auto mark_lanes = [](tensor::Tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i % 7 == 3) t[i] = -0.0f;
      if (i % 11 == 5) t[i] = (i % 2 ? -1.0f : 1.0f) * 3e-40f;
    }
  };
  util::Rng rng(43);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  int cases = 0;
  for (int kernel : {1, 2, 3, 5}) {
    for (int stride : {1, 2, 3}) {
      for (int padding : {0, 1, 2}) {
        for (int width : {1, 7, 12, 16, 17, 33}) {
          if (width + 2 * padding < kernel) continue;
          Conv2d conv(2, 5, kernel, rng, stride, padding);
          std::vector<Param*> params;
          conv.collect_params(params);
          tensor::Tensor x = random_tensor({2, 2, 7, width}, rng);
          mark_lanes(x);
          const tensor::Tensor& y = conv.forward(x, /*train=*/true);
          tensor::Tensor g = random_tensor(y.shape(), rng);
          mark_lanes(g);
          fnv1a(hash, y);
          zero_grads(params);
          fnv1a(hash, conv.backward(g));
          fnv1a(hash, params[0]->grad);
          fnv1a(hash, params[1]->grad);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 204);
  // avx512vl, avx2-fma
  const std::uint64_t pinned[2] = {0x68b626072b4c7a8fULL,
                                   0xd5f23ea1181abe5fULL};
  EXPECT_EQ(hash, pinned[column]) << "0x" << std::hex << hash;
}

// tensor::gemm::im2col and col2im against the per-element gather and
// scatter they stand for, bit for bit, over the grid above on two 6-row
// channels whose lanes include NaN, +-inf, -0 and subnormals. The NaN is
// the default quiet NaN that inf + -inf also produces, so a sum that
// meets two NaNs has one result whatever the operand order. The buffers
// are sized exactly, so a sanitizer build also checks that neither kernel
// touches a float outside them.
TEST(Conv2d, ColumnMovesMatchPerElementGatherAndScatter) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::bit_cast<float>(0xffc00000u), inf, -inf,
                            -0.0f, 1e-45f, -3e-39f, 2.5f};
  util::Rng rng(47);
  const auto fill = [&](std::vector<float>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = i % 3 == 1 ? specials[rng.uniform_index(std::size(specials))]
                        : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  };
  for (int kernel : {1, 2, 3, 5}) {
    for (int stride : {1, 2, 3}) {
      for (int padding : {0, 1, 2}) {
        for (int width : {1, 7, 12, 16, 17, 33}) {
          if (width + 2 * padding < kernel) continue;
          const tensor::gemm::ConvShape s{2, 6, width, kernel, stride,
                                          padding};
          const int oh = s.out_h(), ow = s.out_w();
          const std::size_t patch = static_cast<std::size_t>(oh) * ow;
          std::vector<float> image(static_cast<std::size_t>(2) * 6 * width);
          std::vector<float> cols(2 * kernel * kernel * patch);
          const auto pixel = [&](int c, int kr, int kc, int orow,
                                 int ocol) -> std::ptrdiff_t {
            const int y = orow * stride + kr - padding;
            const int x = ocol * stride + kc - padding;
            if (y < 0 || y >= 6 || x < 0 || x >= width) return -1;
            return (static_cast<std::ptrdiff_t>(c) * 6 + y) * width + x;
          };
          const auto col = [&](int c, int kr, int kc, int orow, int ocol) {
            return ((static_cast<std::size_t>(c) * kernel + kr) * kernel +
                    kc) * patch + static_cast<std::size_t>(orow) * ow + ocol;
          };
          const std::string label =
              "k " + std::to_string(kernel) + " s " + std::to_string(stride) +
              " p " + std::to_string(padding) + " w " + std::to_string(width);

          fill(image);
          std::vector<float> want(cols.size());
          for (int c = 0; c < 2; ++c)
            for (int kr = 0; kr < kernel; ++kr)
              for (int kc = 0; kc < kernel; ++kc)
                for (int orow = 0; orow < oh; ++orow)
                  for (int ocol = 0; ocol < ow; ++ocol) {
                    const std::ptrdiff_t p = pixel(c, kr, kc, orow, ocol);
                    want[col(c, kr, kc, orow, ocol)] =
                        p < 0 ? 0.0f : image[static_cast<std::size_t>(p)];
                  }
          tensor::gemm::im2col(s, image.data(), cols.data());
          ASSERT_EQ(std::memcmp(cols.data(), want.data(),
                                cols.size() * sizeof(float)),
                    0)
              << "im2col " << label;

          fill(cols);
          std::vector<float> sum(image.size(), 0.0f);
          for (int c = 0; c < 2; ++c)
            for (int kr = 0; kr < kernel; ++kr)
              for (int kc = 0; kc < kernel; ++kc)
                for (int orow = 0; orow < oh; ++orow)
                  for (int ocol = 0; ocol < ow; ++ocol) {
                    const std::ptrdiff_t p = pixel(c, kr, kc, orow, ocol);
                    if (p >= 0) {
                      sum[static_cast<std::size_t>(p)] +=
                          cols[col(c, kr, kc, orow, ocol)];
                    }
                  }
          fill(image);  // col2im overwrites every pixel
          tensor::gemm::col2im(s, cols.data(), image.data());
          ASSERT_EQ(std::memcmp(image.data(), sum.data(),
                                image.size() * sizeof(float)),
                    0)
              << "col2im " << label;
        }
      }
    }
  }
}

TEST(MaxPool2d, ForwardSelectsMax) {
  MaxPool2d pool(2);
  tensor::Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const tensor::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  tensor::Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  (void)pool.forward(x, true);
  tensor::Tensor g({1, 1, 1, 1}, {2.0f});
  const tensor::Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx[1], 2.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

// A window that nothing in it beats -inf (all -inf or NaN) routes its
// gradient to its own first element, never to another sample's pixel.
TEST(MaxPool2d, UnbeatableWindowKeepsItsGradient) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  tensor::Tensor x({3, 1, 2, 2},
                   {1, 5, 3, 2, -inf, -inf, -inf, -inf, nan, nan, nan, nan});
  const tensor::Tensor& y = pool.forward(x, true);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], -inf);
  EXPECT_EQ(y[2], -inf);
  tensor::Tensor g({3, 1, 1, 1}, {1.0f, 100.0f, 10.0f});
  const tensor::Tensor& dx = pool.backward(g);
  const std::vector<float> want = {0, 1, 0, 0, 100, 0, 0, 0, 10, 0, 0, 0};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(dx[i], want[i]) << "dx[" << i << "]";
  }
}

// The 2x2 window's vector step and its scalar tail both keep the window's
// first strict maximum. Every window over {-inf, -1, -0, +0, 1, +inf, NaN}
// (equal values, +0 against -0, NaN and +-inf at each of the four window
// positions) sits in each of a sample's five output slots: four lanes of
// one vector step, then the ow % 4 tail. Forward must match the scalar
// rule bit for bit, and backward must route each gradient to the argmax.
TEST(MaxPool2d, EdgeLanesKeepFirstStrictMax) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> alphabet = {
      -inf, -1.0f, -0.0f, 0.0f, 1.0f, inf,
      std::numeric_limits<float>::quiet_NaN()};
  std::vector<std::array<float, 4>> windows;  // taps in window order
  for (const float a : alphabet) {
    for (const float b : alphabet) {
      for (const float c : alphabet) {
        for (const float d : alphabet) windows.push_back({a, b, c, d});
      }
    }
  }
  const int slots = 5;
  const int samples = static_cast<int>(windows.size());
  const int w = 2 * slots;
  tensor::Tensor x({samples, 1, 2, w});
  std::vector<float> want_y;
  std::vector<std::size_t> want_arg;  // flat input index per output
  for (int sample = 0; sample < samples; ++sample) {
    for (int slot = 0; slot < slots; ++slot) {
      const auto& taps =
          windows[static_cast<std::size_t>(sample + slot) % windows.size()];
      const std::size_t origin =
          static_cast<std::size_t>(sample) * 2 * w + 2 * slot;
      const std::size_t at[4] = {origin, origin + 1, origin + w,
                                 origin + w + 1};
      float best = -inf;
      std::size_t arg = origin;
      for (int t = 0; t < 4; ++t) {
        x[at[t]] = taps[t];
        if (taps[t] > best) {
          best = taps[t];
          arg = at[t];
        }
      }
      want_y.push_back(best);
      want_arg.push_back(arg);
    }
  }
  MaxPool2d pool(2);
  const tensor::Tensor& y = pool.forward(x, true);
  ASSERT_EQ(y.size(), want_y.size());
  ASSERT_EQ(std::memcmp(y.data(), want_y.data(), want_y.size() * sizeof(float)),
            0);
  tensor::Tensor g({samples, 1, 1, slots});
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<float>(i + 1);
  const tensor::Tensor& dx = pool.backward(g);
  std::vector<float> want_dx(x.size(), 0.0f);
  for (std::size_t i = 0; i < want_arg.size(); ++i) want_dx[want_arg[i]] = g[i];
  for (std::size_t i = 0; i < want_dx.size(); ++i) {
    ASSERT_EQ(dx[i], want_dx[i]) << "dx[" << i << "]";
  }
}

TEST(MaxPool2d, GradCheck) {
  util::Rng rng(13);
  MaxPool2d pool(2);
  check_gradients(pool, random_tensor({2, 3, 6, 6}, rng), rng);
}

TEST(AvgPool2d, ForwardAverages) {
  AvgPool2d pool(2);
  tensor::Tensor x({1, 1, 2, 2}, {1, 5, 3, 3});
  const tensor::Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPool2d, GradCheck) {
  util::Rng rng(14);
  AvgPool2d pool(2);
  check_gradients(pool, random_tensor({1, 2, 4, 4}, rng), rng);
}

TEST(GlobalAvgPool, ShapeAndGradCheck) {
  util::Rng rng(15);
  GlobalAvgPool pool;
  const tensor::Tensor x = random_tensor({2, 3, 4, 5}, rng);
  const tensor::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3}));
  GlobalAvgPool pool2;
  check_gradients(pool2, random_tensor({2, 3, 4, 4}, rng), rng);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  util::Rng rng(16);
  const tensor::Tensor x = random_tensor({4, 2, 5, 5}, rng, 3.0f);
  const tensor::Tensor y = bn.forward(x, true);
  // Per channel: mean ~0, var ~1.
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    int count = 0;
    for (int n = 0; n < 4; ++n) {
      for (int r = 0; r < 5; ++r) {
        for (int col = 0; col < 5; ++col) {
          const double v = y.at(n, c, r, col);
          sum += v;
          sq += v * v;
          ++count;
        }
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  util::Rng rng(17);
  // Enough training passes for the EMA running stats to converge.
  for (int i = 0; i < 80; ++i) {
    tensor::Tensor x = random_tensor({8, 1, 3, 3}, rng);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] = 2.0f * x[j] + 5.0f;
    (void)bn.forward(x, true);
  }
  // Eval on a constant input: output should be ~(input - 5) / 2.
  tensor::Tensor x = tensor::Tensor::full({1, 1, 3, 3}, 7.0f);
  const tensor::Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y[0], 1.0f, 0.2f);
}

TEST(BatchNorm2d, GradCheck) {
  util::Rng rng(18);
  BatchNorm2d bn(3);
  check_gradients(bn, random_tensor({4, 3, 3, 3}, rng), rng);
}

TEST(BatchNorm2d, BuffersMarkedNonTrainable) {
  BatchNorm2d bn(4);
  std::vector<Param*> params;
  bn.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_TRUE(params[0]->trainable);   // gamma
  EXPECT_TRUE(params[1]->trainable);   // beta
  EXPECT_FALSE(params[2]->trainable);  // running mean
  EXPECT_FALSE(params[3]->trainable);  // running var
}

TEST(ResidualBlock, IdentityShapePreserved) {
  util::Rng rng(19);
  ResidualBlock block(4, 4, 1, rng);
  const tensor::Tensor x = random_tensor({2, 4, 6, 6}, rng);
  EXPECT_EQ(block.forward(x, true).shape(), x.shape());
}

TEST(ResidualBlock, ProjectionChangesShape) {
  util::Rng rng(20);
  ResidualBlock block(4, 8, 2, rng);
  const tensor::Tensor x = random_tensor({2, 4, 6, 6}, rng);
  const tensor::Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 3, 3}));
}

TEST(ResidualBlock, GradCheckIdentity) {
  util::Rng rng(21);
  ResidualBlock block(3, 3, 1, rng);
  // 10% median tolerance: the residual sum feeds an un-normalized ReLU, so
  // directional probes cross kinks more often than in the projection case.
  fedsu::testing::check_gradients_directional(
      block, random_tensor({3, 3, 4, 4}, rng), rng, 9, 0.10);
}

TEST(ResidualBlock, GradCheckProjection) {
  util::Rng rng(22);
  ResidualBlock block(2, 4, 2, rng);
  fedsu::testing::check_gradients_directional(
      block, random_tensor({3, 2, 4, 4}, rng), rng);
}

TEST(DenseLayer, ConcatenatesChannels) {
  util::Rng rng(23);
  DenseLayer layer(3, 2, rng);
  const tensor::Tensor x = random_tensor({2, 3, 5, 5}, rng);
  const tensor::Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 5, 5, 5}));
  // The first 3 channels pass through unchanged.
  for (int n = 0; n < 2; ++n) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(y.at(n, c, 2, 2), x.at(n, c, 2, 2));
    }
  }
}

TEST(DenseLayer, GradCheck) {
  util::Rng rng(24);
  DenseLayer layer(2, 2, rng);
  fedsu::testing::check_gradients_directional(
      layer, random_tensor({2, 2, 4, 4}, rng), rng);
}

TEST(TransitionLayer, HalvesResolution) {
  util::Rng rng(25);
  TransitionLayer layer(6, 3, rng);
  const tensor::Tensor x = random_tensor({2, 6, 8, 8}, rng);
  const tensor::Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3, 4, 4}));
}

TEST(TransitionLayer, GradCheck) {
  util::Rng rng(26);
  TransitionLayer layer(4, 2, rng);
  fedsu::testing::check_gradients_directional(
      layer, random_tensor({2, 4, 4, 4}, rng), rng);
}

TEST(Sequential, ChainsAndCollects) {
  util::Rng rng(27);
  Sequential seq;
  seq.add(std::make_unique<Linear>(8, 6, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(6, 3, rng));
  const tensor::Tensor x = random_tensor({2, 8}, rng);
  EXPECT_EQ(seq.forward(x, true).shape(), (std::vector<int>{2, 3}));
  std::vector<Param*> params;
  seq.collect_params(params);
  EXPECT_EQ(params.size(), 4u);
  EXPECT_THROW(seq.add(nullptr), std::invalid_argument);
}

TEST(Sequential, GradCheck) {
  util::Rng rng(28);
  Sequential seq;
  seq.add(std::make_unique<Linear>(5, 4, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(4, 2, rng));
  check_gradients(seq, random_tensor({3, 5}, rng), rng);
}

// backward_params() accumulates exactly backward()'s parameter grads: on
// Conv2d's own skip path (sequential and, at 4 threads, per-sample pooled),
// through Sequential, and through the default implementation.
TEST(BackwardParams, MatchesBackwardGradsBitwise) {
  struct Case {
    const char* name;
    std::function<ModulePtr(util::Rng&)> make;
    std::vector<int> input_shape;
  };
  const std::vector<Case> cases = {
      {"conv",
       [](util::Rng& r) { return std::make_unique<Conv2d>(3, 4, 3, r); },
       {2, 3, 6, 6}},
      {"conv stride 2 pad 1 no bias",
       [](util::Rng& r) {
         return std::make_unique<Conv2d>(3, 4, 3, r, 2, 1, /*bias=*/false);
       },
       {3, 3, 7, 7}},
      {"conv pooled",
       [](util::Rng& r) { return std::make_unique<Conv2d>(4, 8, 5, r); },
       {16, 4, 28, 28}},
      {"sequential",
       [](util::Rng& r) {
         auto seq = std::make_unique<Sequential>();
         seq->add(std::make_unique<Conv2d>(2, 3, 3, r))
             .add(std::make_unique<ReLU>())
             .add(std::make_unique<MaxPool2d>(2))
             .add(std::make_unique<Flatten>())
             .add(std::make_unique<Linear>(12, 5, r));
         return seq;
       },
       {3, 2, 6, 6}},
      {"linear (default)",
       [](util::Rng& r) { return std::make_unique<Linear>(6, 4, r); },
       {3, 6}},
  };
  const int threads = util::ThreadPool::global().size();
  util::ThreadPool::set_global_threads(4);
  for (const Case& c : cases) {
    util::Rng init_full(31), init_params(31), rng(32);
    const ModulePtr full = c.make(init_full);
    const ModulePtr params_only = c.make(init_params);
    const tensor::Tensor x = random_tensor(c.input_shape, rng);
    const tensor::Tensor g = random_tensor(full->forward(x, true).shape(), rng);
    (void)full->backward(g);
    (void)params_only->forward(x, true);
    params_only->backward_params(g);
    std::vector<Param*> want, got;
    full->collect_params(want);
    params_only->collect_params(got);
    ASSERT_EQ(want.size(), got.size()) << c.name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i]->grad.size(), got[i]->grad.size());
      EXPECT_EQ(std::memcmp(want[i]->grad.data(), got[i]->grad.data(),
                            sizeof(float) * want[i]->grad.size()),
                0)
          << c.name << " " << want[i]->name;
    }
  }
  util::ThreadPool::set_global_threads(threads);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits({2, 4});
  const float l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0f), 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  util::Rng rng(29);
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits = random_tensor({3, 5}, rng);
  const std::vector<int> labels{1, 4, 0};
  (void)loss.forward(logits, labels);
  const tensor::Tensor grad = loss.backward();
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    SoftmaxCrossEntropy probe;
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double plus = probe.forward(logits, labels);
    logits[i] = saved - static_cast<float>(eps);
    const double minus = probe.forward(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR(grad[i], (plus - minus) / (2 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, ProbabilitiesSumToOne) {
  util::Rng rng(30);
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits = random_tensor({4, 6}, rng, 5.0f);
  (void)loss.forward(logits, {0, 1, 2, 3});
  const tensor::Tensor& probs = loss.probabilities();
  for (int i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 6; ++j) sum += probs.at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy loss;
  tensor::Tensor logits({1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), std::invalid_argument);
  EXPECT_THROW(loss.forward(logits, {-1}), std::invalid_argument);
  EXPECT_THROW(loss.forward(logits, {0, 1}), std::invalid_argument);
}

TEST(Accuracy, CountsArgmaxMatches) {
  tensor::Tensor logits({2, 3}, {0.1f, 0.9f, 0.0f, 0.8f, 0.1f, 0.1f});
  EXPECT_FLOAT_EQ(accuracy(logits, {1, 0}), 1.0f);
  EXPECT_FLOAT_EQ(accuracy(logits, {0, 0}), 0.5f);
}

}  // namespace
}  // namespace fedsu::nn

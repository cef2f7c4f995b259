// tensor/gemm blocked kernels: correctness vs a double-precision reference
// on randomized shapes (including tails and degenerate edges), accumulate
// mode, bitwise thread-count invariance (the DESIGN.md §5b contract, same
// pattern as test_thread_pool.cpp), and a per-ISA hash of every output bit. The zero-allocation contract of
// the arena-backed training path is tested in test_nn_step.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsu::tensor {
namespace {

using gemm::Accumulate;
using gemm::Variant;

std::vector<float> random_buffer(std::size_t n, util::Rng& rng) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

// Double-precision naive reference for all three variants.
std::vector<double> reference(Variant v, int m, int n, int k,
                              const std::vector<float>& a,
                              const std::vector<float>& b) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int l = 0; l < k; ++l) {
        double av = 0.0, bv = 0.0;
        switch (v) {
          case Variant::kNN:
            av = a[static_cast<std::size_t>(i) * k + l];
            bv = b[static_cast<std::size_t>(l) * n + j];
            break;
          case Variant::kTN:
            av = a[static_cast<std::size_t>(l) * m + i];
            bv = b[static_cast<std::size_t>(l) * n + j];
            break;
          case Variant::kNT:
            av = a[static_cast<std::size_t>(i) * k + l];
            bv = b[static_cast<std::size_t>(j) * k + l];
            break;
        }
        acc += av * bv;
      }
      c[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
  return c;
}

void expect_matches_reference(Variant v, int m, int n, int k) {
  util::Rng rng(static_cast<std::uint64_t>(m) * 1000003 + n * 1009 + k);
  const std::size_t a_size = static_cast<std::size_t>(m) * k;
  const std::size_t b_size = static_cast<std::size_t>(n) * k;
  const std::vector<float> a = random_buffer(a_size, rng);
  const std::vector<float> b = random_buffer(b_size, rng);
  const std::vector<double> ref = reference(v, m, n, k, a, b);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  gemm::sgemm_rows(v, 0, m, m, n, k, a.data(), b.data(), c.data(),
                   Accumulate::kOverwrite);
  // Float accumulation error grows with k; 1e-5 * k is ~100x the expected
  // worst case for inputs in [-1, 1].
  const double tol = 1e-6 * k + 1e-5;
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], tol)
        << "variant " << static_cast<int>(v) << " m=" << m << " n=" << n
        << " k=" << k << " index " << i;
  }
}

// Tile-aligned, tails in every dimension, and unit edges. MR=NR=8 (16-lane
// tiles on AVX-512), MC=64, KC=256, NC=256 in gemm.cpp; shapes straddle all
// those boundaries.
constexpr int kShapes[][3] = {
    {1, 1, 1},    {1, 7, 5},    {7, 1, 3},    {3, 3, 1},   {8, 8, 8},
    {16, 16, 16}, {9, 17, 33},  {13, 29, 7},  {64, 64, 64}, {65, 63, 31},
    {5, 300, 3},  {2, 9, 500},  {100, 10, 257}, {33, 257, 70},
};

TEST(Gemm, MatchesReferenceAcrossShapesAndVariants) {
  for (const auto& s : kShapes) {
    for (Variant v : {Variant::kNN, Variant::kTN, Variant::kNT}) {
      expect_matches_reference(v, s[0], s[1], s[2]);
    }
  }
}

TEST(Gemm, AccumulateModeAddsOntoExistingC) {
  const int m = 13, n = 21, k = 40;
  util::Rng rng(7);
  const std::vector<float> a = random_buffer(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b = random_buffer(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> base = random_buffer(static_cast<std::size_t>(m) * n, rng);

  std::vector<float> product(static_cast<std::size_t>(m) * n, 0.0f);
  gemm::sgemm_rows(Variant::kNN, 0, m, m, n, k, a.data(), b.data(),
                   product.data(), Accumulate::kOverwrite);
  std::vector<float> accumulated = base;
  gemm::sgemm_rows(Variant::kNN, 0, m, m, n, k, a.data(), b.data(),
                   accumulated.data(), Accumulate::kAdd);
  for (std::size_t i = 0; i < accumulated.size(); ++i) {
    // Single KC block (k < 256), so kAdd is exactly base + product.
    ASSERT_FLOAT_EQ(accumulated[i], base[i] + product[i]) << "index " << i;
  }
}

TEST(Gemm, KZeroOverwritesWithZerosAndAddIsNoOp) {
  std::vector<float> c(12, 3.5f);
  gemm::sgemm_rows(Variant::kNN, 0, 3, 3, 4, 0, nullptr, nullptr, c.data(),
                   Accumulate::kAdd);
  for (float v : c) EXPECT_EQ(v, 3.5f);
  gemm::sgemm_rows(Variant::kNN, 0, 3, 3, 4, 0, nullptr, nullptr, c.data(),
                   Accumulate::kOverwrite);
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

// A row's bits may not depend on which worker computes it or where the
// thread chunk boundaries land (DESIGN.md §5b rule 4). The shape clears the
// 2^20-MAC fan-out threshold so the pooled run really does split rows.
TEST(Gemm, BitwiseIdenticalAcrossThreadCounts) {
  const int m = 96, n = 112, k = 128;
  util::Rng rng(11);
  const std::vector<float> a = random_buffer(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b = random_buffer(static_cast<std::size_t>(k) * n, rng);

  std::vector<std::vector<float>> results;
  for (int threads : {1, 3, 8}) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    gemm::sgemm(Variant::kNN, m, n, k, a.data(), b.data(), c.data(),
                Accumulate::kOverwrite);
    results.push_back(std::move(c));
  }
  util::ThreadPool::set_global_threads(1);
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(std::memcmp(results[0].data(), results[i].data(),
                          results[0].size() * sizeof(float)),
              0)
        << "GEMM output diverged between 1 thread and variant " << i;
  }
}

// Index of the recorded pin column for this build, or -1: the same rule
// as test_nn_step.cpp (plain GCC builds, avx512vl or avx2-fma clone).
int pin_column() {
#if !defined(FEDSU_NN_UNPINNED) && !defined(__FMA__)
  const std::string isa = gemm::isa_name();
  if (isa == "avx512vl") return 0;
  if (isa == "avx2-fma") return 1;
#endif
  return -1;
}

struct Product {
  Variant variant;
  int m, n, k;
};

// FNV-1a over every output bit of each product, run once overwriting and
// once adding onto a random C, with operands drawn from Rng(seed).
std::uint64_t product_hash(const std::vector<Product>& products,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Product& p : products) {
    const std::size_t c_size = static_cast<std::size_t>(p.m) * p.n;
    const std::vector<float> a =
        random_buffer(static_cast<std::size_t>(p.m) * p.k, rng);
    const std::vector<float> b =
        random_buffer(static_cast<std::size_t>(p.n) * p.k, rng);
    for (Accumulate mode : {Accumulate::kOverwrite, Accumulate::kAdd}) {
      std::vector<float> c = random_buffer(c_size, rng);
      gemm::sgemm_rows(p.variant, 0, p.m, p.m, p.n, p.k, a.data(), b.data(),
                       c.data(), mode);
      const auto* bytes = reinterpret_cast<const unsigned char*>(c.data());
      for (std::size_t i = 0; i < c_size * sizeof(float); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// Every output bit of the kernel, not just its tolerance: each shape above
// x every variant x {overwrite, add onto a random C}, then the five
// per-sample GEMMs of the paper CNN's step (28x28 input).
TEST(Gemm, EveryShapeIsBitwisePinned) {
  const int column = pin_column();
  if (column < 0) GTEST_SKIP() << "no pins for this compiler, flags or ISA";
  std::vector<Product> products;
  for (const auto& s : kShapes) {
    for (Variant v : {Variant::kNN, Variant::kTN, Variant::kNT}) {
      products.push_back({v, s[0], s[1], s[2]});
    }
  }
  products.push_back({Variant::kNN, 8, 576, 25});   // conv1 forward
  products.push_back({Variant::kNT, 8, 25, 576});   // conv1 dW
  products.push_back({Variant::kNN, 16, 64, 200});  // conv2 forward
  products.push_back({Variant::kNT, 16, 200, 64});  // conv2 dW
  products.push_back({Variant::kTN, 200, 64, 16});  // conv2 dcols
  const std::uint64_t hash = product_hash(products, 17);
  // avx512vl, avx2-fma
  const std::uint64_t pinned[2] = {0x64ed30a0877f2472ULL,
                                   0x798ceebaa0cd2e84ULL};
  EXPECT_EQ(hash, pinned[column]) << "0x" << std::hex << hash;
}

// The seams between tile widths: on AVX-512 the column loop takes 16-lane
// tiles while 16 columns remain and 8-lane tiles after, restarting at each
// NC = 256 panel. Each product has n = 8 mod 16 and k > KC; the packed
// kNN one also spans two NC panels. Then the batch-16 GEMMs of the paper
// CNN's head that the list above lacks: fc1's input gradient and the three
// GEMMs of fc2 = Linear(64, 10).
TEST(Gemm, TileSeamsAreBitwisePinned) {
  const int column = pin_column();
  if (column < 0) GTEST_SKIP() << "no pins for this compiler, flags or ISA";
  const std::vector<Product> products = {
      {Variant::kNN, 70, 264, 300},  // packed B, two NC panels
      {Variant::kTN, 64, 40, 260},   // packed B, kTN
      {Variant::kNN, 24, 56, 270},   // direct B (m < MC)
      {Variant::kNN, 16, 256, 64},   // fc1 dX
      {Variant::kNT, 16, 10, 64},    // fc2 forward
      {Variant::kTN, 10, 64, 16},    // fc2 dW
      {Variant::kNN, 16, 64, 10},    // fc2 dX
  };
  const std::uint64_t hash = product_hash(products, 29);
  // avx512vl, avx2-fma
  const std::uint64_t pinned[2] = {0x884fcaef1ac3815aULL,
                                   0x884fcaef1ac3815aULL};
  EXPECT_EQ(hash, pinned[column]) << "0x" << std::hex << hash;
}

// IEEE semantics through the kernel: a zero operand against Inf must
// propagate NaN (0 * Inf), which a zero-skipping shortcut would suppress.
TEST(Gemm, PropagatesNanFromZeroTimesInf) {
  const float a[2] = {0.0f, 1.0f};
  const float b[2] = {std::numeric_limits<float>::infinity(), 2.0f};
  float c = 0.0f;
  gemm::sgemm(Variant::kNN, 1, 1, 2, a, b, &c, Accumulate::kOverwrite);
  EXPECT_TRUE(std::isnan(c));
}

}  // namespace
}  // namespace fedsu::tensor

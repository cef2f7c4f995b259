// Deterministic random number generation for reproducible experiments.
//
// We deliberately avoid std::mt19937 + std::*_distribution at experiment
// boundaries because their exact output is implementation-defined across
// standard libraries; xoshiro256** plus hand-rolled distributions gives
// bit-identical runs everywhere, which the tests rely on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedsu::util {

// SplitMix64: used to expand a single user seed into generator state.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators" (OOPSLA'14).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  // Standard normal via Box-Muller (cached pair).
  double normal();
  double normal(double mean, double stddev);
  // Advances the generator exactly as `count` normal() calls would, Box-Muller
  // cache included: all seven state words end as those calls leave them.
  // Only the last pair is computed, so skipping costs two next_u64() per pair.
  void skip_normals(std::size_t count);
  // Lognormal with parameters of the underlying normal.
  double lognormal(double mu, double sigma);
  // Gamma(shape, 1) via Marsaglia-Tsang; used by the Dirichlet sampler.
  double gamma(double shape);
  // Dirichlet(alpha, ..., alpha) over `k` categories.
  std::vector<double> dirichlet(double alpha, int k);
  // Bernoulli draw.
  bool bernoulli(double p);

  // Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  // Derives an independent child generator; stream `i` is stable across
  // runs for the same parent seed.
  Rng fork(std::uint64_t stream) const;

  // Full generator state as 7 words: s_[0..3], seed_, the Box-Muller
  // cache flag, and the cached normal's bit pattern. Restoring these
  // words reproduces the exact draw sequence, which checkpoint/resume
  // relies on (fork() depends only on seed_, so the words are complete).
  static constexpr std::size_t kStateWords = 7;
  std::array<std::uint64_t, kStateWords> state_words() const;
  void restore_state_words(const std::array<std::uint64_t, kStateWords>& w);

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedsu::util

#include "util/rng.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>

namespace fedsu::util {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

void Rng::skip_normals(std::size_t count) {
  if (count > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --count;
  }
  // Each pair is two uniform() draws; the last one or two normals run in
  // full so the cache flag and the cached value come out as normal() sets
  // them.
  for (; count > 2; count -= 2) {
    next_u64();
    next_u64();
  }
  for (; count > 0; --count) normal();
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, int k) {
  std::vector<double> out(static_cast<std::size_t>(k));
  double sum = 0.0;
  for (auto& v : out) {
    v = gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {
    // Degenerate draw (can happen for tiny alpha): fall back to one-hot.
    const std::size_t hot = uniform_index(static_cast<std::uint64_t>(k));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = (i == hot) ? 1.0 : 0.0;
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork(std::uint64_t stream) const {
  SplitMix64 sm(seed_ ^ (0xa0761d6478bd642fULL * (stream + 1)));
  return Rng(sm.next());
}

std::array<std::uint64_t, Rng::kStateWords> Rng::state_words() const {
  return {s_[0], s_[1], s_[2], s_[3], seed_,
          has_cached_normal_ ? 1ULL : 0ULL,
          std::bit_cast<std::uint64_t>(cached_normal_)};
}

void Rng::restore_state_words(
    const std::array<std::uint64_t, kStateWords>& w) {
  s_[0] = w[0];
  s_[1] = w[1];
  s_[2] = w[2];
  s_[3] = w[3];
  seed_ = w[4];
  has_cached_normal_ = w[5] != 0;
  cached_normal_ = std::bit_cast<double>(w[6]);
}

}  // namespace fedsu::util

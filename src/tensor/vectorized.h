// Auto-vectorization-friendly elementwise kernels over raw float spans.
//
// These are the hot helpers behind tensor::add_inplace / axpy / vec_axpy /
// vec_l2_diff and the ReLU layers — run every round by client training,
// FedAvg aggregation, and FedSU's speculation / error-feedback path. They
// live in a header as inline functions over restrict-qualified unit-stride
// pointers so every translation unit gets a vectorized copy: no aliasing
// checks, no runtime versioning, a single contiguous FMA/add loop the
// compiler turns into packed SIMD at the target ISA's width.
//
// Reductions (dot / l2 / sums) deliberately keep a single scalar double
// accumulator instead of a vectorized multi-lane sum: the extra precision
// is what the FL protocols were written against, and a fixed left-to-right
// order keeps results independent of ISA and build flags (DESIGN.md §5b —
// reduction order is part of the determinism contract; elementwise maps
// have no order to preserve).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__GNUC__) || defined(__clang__)
#define FEDSU_RESTRICT __restrict__
#else
#define FEDSU_RESTRICT
#endif

namespace fedsu::tensor::vec {

// y[i] += x[i]
inline void add(float* FEDSU_RESTRICT y, const float* FEDSU_RESTRICT x,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

// y[i] -= x[i]
inline void sub(float* FEDSU_RESTRICT y, const float* FEDSU_RESTRICT x,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

// y[i] *= x[i]
inline void mul(float* FEDSU_RESTRICT y, const float* FEDSU_RESTRICT x,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

// y[i] *= s
inline void scale(float* FEDSU_RESTRICT y, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

// y[i] += alpha * x[i]
inline void axpy(float* FEDSU_RESTRICT y, float alpha,
                 const float* FEDSU_RESTRICT x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// out[i] = a[i] - b[i]
inline void diff(float* FEDSU_RESTRICT out, const float* FEDSU_RESTRICT a,
                 const float* FEDSU_RESTRICT b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

// y[i] = value
inline void fill(float* FEDSU_RESTRICT y, float value, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = value;
}

// y[i] = x[i] < 0 ? 0 : x[i], applied as a bit mask so the loop has no
// data-dependent branch and vectorizes. Bitwise the clamp: negatives become
// +0, while -0 and NaN pass through unchanged.
inline void relu(float* FEDSU_RESTRICT y, const float* FEDSU_RESTRICT x,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = x[i] < 0.0f ? 0u : ~0u;
    y[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) & keep);
  }
}

// dx[i] = y[i] <= 0 ? 0 : g[i], gated on relu()'s output y. y <= 0 exactly
// where its input was <= 0 (-0 included, NaN excluded), so the gate needs
// no copy of the input.
inline void relu_grad(float* FEDSU_RESTRICT dx, const float* FEDSU_RESTRICT g,
                      const float* FEDSU_RESTRICT y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = y[i] <= 0.0f ? 0u : ~0u;
    dx[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
  }
}

// --- reductions (double accumulator, fixed left-to-right order) ---

inline double sum(const float* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

inline double dot(const float* FEDSU_RESTRICT a,
                  const float* FEDSU_RESTRICT b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

inline double l2_sq(const float* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return acc;
}

inline double l2_diff_sq(const float* FEDSU_RESTRICT a,
                         const float* FEDSU_RESTRICT b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace fedsu::tensor::vec

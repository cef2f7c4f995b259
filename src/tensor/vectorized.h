// Auto-vectorization-friendly elementwise kernels over raw float spans.
//
// These are the hot helpers of local training: the gradient sums of Linear,
// Conv2d and the residual blocks, the GEMM's small-shape path, the im2col
// staging fills, and the ReLU layers. They live in a header as inline
// functions over restrict-qualified unit-stride pointers so every
// translation unit gets a vectorized copy: no aliasing checks, no runtime
// versioning, a single contiguous FMA/add loop the compiler turns into
// packed SIMD at the target ISA's width. Elementwise maps have no
// accumulation order to preserve (DESIGN.md §5b).
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

// y[i] += alpha * x[i]
inline void axpy(float* FEDSU_RESTRICT y, float alpha,
                 const float* FEDSU_RESTRICT x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
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

}  // namespace fedsu::tensor::vec

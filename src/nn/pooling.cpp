#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

namespace fedsu::nn {

namespace {
void check_nchw(const tensor::Tensor& t, const char* who) {
  if (t.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected NCHW, got " +
                                t.shape_string());
  }
}

// 4-float vectors: an 8-float GNU vector spills to the stack in this
// baseline-ISA file, a 4-float one stays in a register.
typedef float v4sf __attribute__((vector_size(16), may_alias,
                                  aligned(alignof(float))));
typedef std::uint32_t v4su __attribute__((vector_size(16), may_alias,
                                          aligned(alignof(std::uint32_t))));

// Four adjacent outputs of a 2x2, stride-2 max pool, branch-free. `x` is
// the first window's top-left input, `first` its flat index, and `w` the
// input row length. Each input row is two 4-float loads, deinterleaved
// into the windows' even and odd taps; the four taps then run in window
// order, and a strict `>` selects value and index together. So every lane
// keeps its window's first strict maximum, starting from -inf at the
// window's first element: the scalar loop's bits exactly, NaN, -0 and
// -inf windows included.
void max_pool2x2_step(const float* x, std::size_t w, std::uint32_t first,
                      float* y, std::uint32_t* argmax) {
  const v4sf top0 = *reinterpret_cast<const v4sf*>(x);
  const v4sf top1 = *reinterpret_cast<const v4sf*>(x + 4);
  const v4sf bottom0 = *reinterpret_cast<const v4sf*>(x + w);
  const v4sf bottom1 = *reinterpret_cast<const v4sf*>(x + w + 4);
  const v4sf taps[4] = {__builtin_shufflevector(top0, top1, 0, 2, 4, 6),
                        __builtin_shufflevector(top0, top1, 1, 3, 5, 7),
                        __builtin_shufflevector(bottom0, bottom1, 0, 2, 4, 6),
                        __builtin_shufflevector(bottom0, bottom1, 1, 3, 5, 7)};
  const auto row = static_cast<std::uint32_t>(w);
  const std::uint32_t offsets[4] = {0, 1, row, row + 1};
  const v4su origin = first + v4su{0, 2, 4, 6};
  const float inf = std::numeric_limits<float>::infinity();
  v4sf best = {-inf, -inf, -inf, -inf};
  v4su best_idx = origin;
#pragma GCC unroll 4
  for (int t = 0; t < 4; ++t) {
    const auto wins = taps[t] > best;
    best = wins ? taps[t] : best;
    best_idx = wins ? origin + offsets[t] : best_idx;
  }
  *reinterpret_cast<v4sf*>(y) = best;
  *reinterpret_cast<v4su*>(argmax) = best_idx;
}
}  // namespace

MaxPool2d::MaxPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel_ <= 0 || stride_ <= 0) {
    throw std::invalid_argument("MaxPool2d: non-positive kernel/stride");
  }
}

const tensor::Tensor& MaxPool2d::forward(const tensor::Tensor& input,
                                         bool /*train*/) {
  check_nchw(input, "MaxPool2d::forward");
  in_shape_ = input.shape();
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = (h - kernel_) / stride_ + 1;
  const int ow = (w - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("MaxPool2d: kernel larger than input");
  }
  // Every output element and its argmax are written below.
  out_.resize({n, c, oh, ow});
  argmax_.resize(out_.size());
  const float* x = input.data();
  float* y = out_.data();
  // The paper CNN's 2x2, stride-2 window takes four outputs per vector
  // step; the scalar loop below serves the ow % 4 tail and other shapes.
  const int vector_cols = kernel_ == 2 && stride_ == 2 ? ow / 4 * 4 : 0;
  std::size_t oi = 0;
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      const std::size_t plane =
          (static_cast<std::size_t>(in) * c + ic) * h * w;
      for (int orow = 0; orow < oh; ++orow) {
        int ocol = 0;
        for (; ocol < vector_cols; ocol += 4, oi += 4) {
          const std::size_t first =
              plane + static_cast<std::size_t>(orow) * 2 * w +
              static_cast<std::size_t>(ocol) * 2;
          max_pool2x2_step(x + first, static_cast<std::size_t>(w),
                           static_cast<std::uint32_t>(first), y + oi,
                           argmax_.data() + oi);
        }
        for (; ocol < ow; ++ocol, ++oi) {
          // The argmax starts at the window's own first element: a window
          // nothing in which beats -inf (all -inf or NaN) keeps its
          // gradient inside its own sample and channel.
          float best = -std::numeric_limits<float>::infinity();
          std::uint32_t best_idx = static_cast<std::uint32_t>(
              plane + static_cast<std::size_t>(orow) * stride_ * w +
              static_cast<std::size_t>(ocol) * stride_);
          for (int kr = 0; kr < kernel_; ++kr) {
            const int r = orow * stride_ + kr;
            for (int kc = 0; kc < kernel_; ++kc) {
              const int col = ocol * stride_ + kc;
              const std::size_t idx = plane + static_cast<std::size_t>(r) * w + col;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = static_cast<std::uint32_t>(idx);
              }
            }
          }
          y[oi] = best;
          argmax_[oi] = best_idx;
        }
      }
    }
  }
  return out_;
}

const tensor::Tensor& MaxPool2d::backward(const tensor::Tensor& grad_output) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: shape mismatch");
  }
  dx_.resize(in_shape_);
  dx_.zero();  // the scatter below accumulates
  float* p = dx_.data();
  const float* g = grad_output.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) p[argmax_[i]] += g[i];
  return dx_;
}

AvgPool2d::AvgPool2d(int kernel, int stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel_ <= 0 || stride_ <= 0) {
    throw std::invalid_argument("AvgPool2d: non-positive kernel/stride");
  }
}

const tensor::Tensor& AvgPool2d::forward(const tensor::Tensor& input,
                                         bool /*train*/) {
  check_nchw(input, "AvgPool2d::forward");
  in_shape_ = input.shape();
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = (h - kernel_) / stride_ + 1;
  const int ow = (w - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("AvgPool2d: kernel larger than input");
  }
  out_.resize({n, c, oh, ow});  // every element is written below
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int orow = 0; orow < oh; ++orow) {
        for (int ocol = 0; ocol < ow; ++ocol) {
          float acc = 0.0f;
          for (int kr = 0; kr < kernel_; ++kr) {
            for (int kc = 0; kc < kernel_; ++kc) {
              acc += input.at(in, ic, orow * stride_ + kr, ocol * stride_ + kc);
            }
          }
          out_.at(in, ic, orow, ocol) = acc * inv;
        }
      }
    }
  }
  return out_;
}

const tensor::Tensor& AvgPool2d::backward(const tensor::Tensor& grad_output) {
  dx_.resize(in_shape_);
  dx_.zero();  // the window scatter below accumulates
  const int n = in_shape_[0], c = in_shape_[1];
  const int oh = grad_output.dim(2), ow = grad_output.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      for (int orow = 0; orow < oh; ++orow) {
        for (int ocol = 0; ocol < ow; ++ocol) {
          const float g = grad_output.at(in, ic, orow, ocol) * inv;
          for (int kr = 0; kr < kernel_; ++kr) {
            for (int kc = 0; kc < kernel_; ++kc) {
              dx_.at(in, ic, orow * stride_ + kr, ocol * stride_ + kc) += g;
            }
          }
        }
      }
    }
  }
  return dx_;
}

const tensor::Tensor& GlobalAvgPool::forward(const tensor::Tensor& input,
                                             bool /*train*/) {
  check_nchw(input, "GlobalAvgPool::forward");
  in_shape_ = input.shape();
  const int n = input.dim(0), c = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  out_.resize({n, c});  // every element is written below
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      float acc = 0.0f;
      for (int r = 0; r < h; ++r) {
        for (int col = 0; col < w; ++col) acc += input.at(in, ic, r, col);
      }
      out_.at(in, ic) = acc * inv;
    }
  }
  return out_;
}

const tensor::Tensor& GlobalAvgPool::backward(
    const tensor::Tensor& grad_output) {
  dx_.resize(in_shape_);  // every element is written below
  const int n = in_shape_[0], c = in_shape_[1], h = in_shape_[2],
            w = in_shape_[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int in = 0; in < n; ++in) {
    for (int ic = 0; ic < c; ++ic) {
      const float g = grad_output.at(in, ic) * inv;
      for (int r = 0; r < h; ++r) {
        for (int col = 0; col < w; ++col) dx_.at(in, ic, r, col) = g;
      }
    }
  }
  return dx_;
}

}  // namespace fedsu::nn

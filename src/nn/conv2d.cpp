#include "nn/conv2d.h"

#include <cstring>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/vectorized.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace fedsu::nn {

namespace {
// Same dispatch rule as the matmuls in tensor/gemm.cpp: fan out on the
// global pool only when the im2col GEMM is big enough to amortize dispatch.
// Each sample of the batch is computed exactly as in the sequential loop,
// so outputs are bitwise identical for any thread count.
constexpr std::size_t kParallelMacThreshold = std::size_t{1} << 20;

bool should_parallelize(std::size_t batch, std::size_t macs) {
  return batch > 1 && macs >= kParallelMacThreshold &&
         fedsu::util::ThreadPool::global().worth_parallelizing();
}

typedef float v4sf __attribute__((vector_size(16)));

// db[oc] = sum over p of g[oc][p], each channel one float chain in
// ascending p. Eight channels run side by side, one per lane of two
// 4-float accumulators (the baseline ISA's vector width, so they stay in
// registers), so each chain keeps its order and only the chains' latencies
// overlap.
void bias_grad(const float* g, int channels, std::size_t patch, float* db) {
  int oc = 0;
  for (; oc + 8 <= channels; oc += 8) {
    const float* r = g + static_cast<std::size_t>(oc) * patch;
    v4sf lo{}, hi{};
    for (std::size_t p = 0; p < patch; ++p) {
      lo += v4sf{r[p], r[patch + p], r[2 * patch + p], r[3 * patch + p]};
      hi += v4sf{r[4 * patch + p], r[5 * patch + p], r[6 * patch + p],
                 r[7 * patch + p]};
    }
    std::memcpy(db + oc, &lo, sizeof lo);
    std::memcpy(db + oc + 4, &hi, sizeof hi);
  }
  for (; oc < channels; ++oc) {
    const float* r = g + static_cast<std::size_t>(oc) * patch;
    float acc = 0.0f;
    for (std::size_t p = 0; p < patch; ++p) acc += r[p];
    db[oc] = acc;
  }
}
}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng,
               int stride, int padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      padding < 0) {
    throw std::invalid_argument("Conv2d: bad constructor arguments");
  }
  const int fan_in = in_channels * kernel * kernel;
  weight_.value = tensor::Tensor({out_channels, fan_in});
  weight_.grad = tensor::Tensor({out_channels, fan_in});
  weight_.name = "conv.weight";
  tensor::kaiming_normal(weight_.value, fan_in, rng);
  if (has_bias_) {
    bias_.value = tensor::Tensor({out_channels});
    bias_.grad = tensor::Tensor({out_channels});
    bias_.name = "conv.bias";
  }
}

const tensor::Tensor& Conv2d::forward(const tensor::Tensor& input,
                                      bool /*train*/) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: bad input " +
                                input.shape_string());
  }
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int oh = out_height(h);
  const int ow = out_width(w);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("Conv2d::forward: output would be empty");
  }
  in_n_ = n;
  in_h_ = h;
  in_w_ = w;
  const int fan_in = in_channels_ * kernel_ * kernel_;
  const int patch = oh * ow;
  // im2col and the GEMM (or bias fill) overwrite every element of both
  // buffers, so neither needs clearing.
  cols_.resize({n, fan_in, patch});
  out_.resize({n, out_channels_, oh, ow});

  const float* wmat = weight_.value.data();
  // Each sample touches only its own cols/out slices, so samples fan out
  // across workers without changing any result bit.
  auto forward_sample = [&](int in) {
    float* cols = cols_.data() + static_cast<std::size_t>(in) * fan_in * patch;
    tensor::gemm::im2col(
        shape(h, w),
        input.data() + static_cast<std::size_t>(in) * in_channels_ * h * w,
        cols);
    // out[in] = W[outC, fan_in] * cols[fan_in, patch] (+ bias)
    float* y =
        out_.data() + static_cast<std::size_t>(in) * out_channels_ * patch;
    if (has_bias_) {
      for (int oc = 0; oc < out_channels_; ++oc) {
        tensor::vec::fill(y + static_cast<std::size_t>(oc) * patch,
                          bias_.value[static_cast<std::size_t>(oc)], patch);
      }
    }
    tensor::gemm::sgemm(tensor::gemm::Variant::kNN, out_channels_, patch,
                        fan_in, wmat, cols, y,
                        has_bias_ ? tensor::gemm::Accumulate::kAdd
                                  : tensor::gemm::Accumulate::kOverwrite);
  };
  const std::size_t macs = static_cast<std::size_t>(n) * out_channels_ *
                           fan_in * patch;
  if (should_parallelize(static_cast<std::size_t>(n), macs)) {
    util::ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(n), [&](std::size_t b, std::size_t e) {
          for (std::size_t in = b; in < e; ++in) {
            forward_sample(static_cast<int>(in));
          }
        });
  } else {
    for (int in = 0; in < n; ++in) forward_sample(in);
  }
  return out_;
}

const tensor::Tensor& Conv2d::backward(const tensor::Tensor& grad_output) {
  dx_.resize({in_n_, in_channels_, in_h_, in_w_});
  backward_into(grad_output, dx_.data());
  return dx_;
}

void Conv2d::backward_params(const tensor::Tensor& grad_output) {
  backward_into(grad_output, nullptr);
}

void Conv2d::backward_into(const tensor::Tensor& grad_output, float* dx) {
  const int n = in_n_, h = in_h_, w = in_w_;
  const int oh = out_height(h), ow = out_width(w);
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_channels_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: bad grad " +
                                grad_output.shape_string());
  }
  const int fan_in = in_channels_ * kernel_ * kernel_;
  const int patch = oh * ow;

  float* dwmat = weight_.grad.data();
  const float* wmat = weight_.value.data();
  const std::size_t wsize = static_cast<std::size_t>(out_channels_) * fan_in;
  const std::size_t dcols_size =
      dx ? static_cast<std::size_t>(fan_in) * patch : 0;

  // Computes sample `in`'s weight/bias gradient contribution into
  // dw_out/db_out (not into the shared grads) and, when dx is wanted, its
  // dx slice. dcols is caller-provided scratch of dcols_size floats.
  auto backward_sample = [&](int in, float* dw_out, float* db_out,
                             float* dcols) {
    const float* g = grad_output.data() +
                     static_cast<std::size_t>(in) * out_channels_ * patch;
    const float* cols =
        cols_.data() + static_cast<std::size_t>(in) * fan_in * patch;
    // dW_contrib = g[outC, patch] * cols[fan_in, patch]^T
    tensor::gemm::sgemm(tensor::gemm::Variant::kNT, out_channels_, fan_in,
                        patch, g, cols, dw_out,
                        tensor::gemm::Accumulate::kOverwrite);
    if (has_bias_) {
      bias_grad(g, out_channels_, static_cast<std::size_t>(patch), db_out);
    }
    if (!dx) return;
    // dcols = W^T[fan_in, outC] * g[outC, patch]
    tensor::gemm::sgemm(tensor::gemm::Variant::kTN, fan_in, patch,
                        out_channels_, wmat, g, dcols,
                        tensor::gemm::Accumulate::kOverwrite);
    tensor::gemm::col2im(
        shape(h, w), dcols,
        dx + static_cast<std::size_t>(in) * in_channels_ * h * w);
  };

  // All scratch below comes from per-thread arenas: after the first batch
  // of a given shape, backward makes no heap allocations (test_nn_step.cpp).
  const std::size_t macs = (dx ? 2 : 1) * static_cast<std::size_t>(n) *
                           out_channels_ * fan_in * patch;
  if (should_parallelize(static_cast<std::size_t>(n), macs)) {
    // Per-sample contributions are computed in parallel (disjoint buffers),
    // then folded into the shared grads in ascending sample order — the very
    // order the sequential loop uses, so grads stay bitwise identical.
    util::ScratchArena& arena = util::ScratchArena::local();
    util::ScratchArena::Frame frame(arena);
    float* dw_contrib = arena.floats(static_cast<std::size_t>(n) * wsize);
    float* db_contrib =
        has_bias_ ? arena.floats(static_cast<std::size_t>(n) * out_channels_)
                  : nullptr;
    util::ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(n), [&](std::size_t b, std::size_t e) {
          util::ScratchArena& worker_arena = util::ScratchArena::local();
          util::ScratchArena::Frame worker_frame(worker_arena);
          float* dcols = worker_arena.floats(dcols_size);
          for (std::size_t in = b; in < e; ++in) {
            backward_sample(static_cast<int>(in), dw_contrib + in * wsize,
                            has_bias_ ? db_contrib + in * out_channels_
                                      : nullptr,
                            dcols);
          }
        });
    for (int in = 0; in < n; ++in) {
      tensor::vec::add(dwmat,
                       dw_contrib + static_cast<std::size_t>(in) * wsize,
                       wsize);
      if (has_bias_) {
        tensor::vec::add(bias_.grad.data(),
                         db_contrib + static_cast<std::size_t>(in) * out_channels_,
                         static_cast<std::size_t>(out_channels_));
      }
    }
  } else {
    util::ScratchArena& arena = util::ScratchArena::local();
    util::ScratchArena::Frame frame(arena);
    float* dcols = arena.floats(dcols_size);
    float* dw_sample = arena.floats(wsize);
    float* db_sample =
        has_bias_ ? arena.floats(static_cast<std::size_t>(out_channels_))
                  : nullptr;
    for (int in = 0; in < n; ++in) {
      backward_sample(in, dw_sample, db_sample, dcols);
      tensor::vec::add(dwmat, dw_sample, wsize);
      if (has_bias_) {
        tensor::vec::add(bias_.grad.data(), db_sample,
                         static_cast<std::size_t>(out_channels_));
      }
    }
  }
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fedsu::nn

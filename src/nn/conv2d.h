// 2-D convolution over NCHW tensors, implemented with im2col + matmul.
#pragma once

#include "nn/module.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace fedsu::nn {

class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng,
         int stride = 1, int padding = 0, bool bias = true);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  // Skips the dcols GEMM and col2im: only the weight/bias grads.
  void backward_params(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "Conv2d"; }

  int out_height(int h) const { return (h + 2 * padding_ - kernel_) / stride_ + 1; }
  int out_width(int w) const { return (w + 2 * padding_ - kernel_) / stride_ + 1; }

 private:
  // One sample's geometry for tensor::gemm::im2col / col2im.
  tensor::gemm::ConvShape shape(int h, int w) const {
    return {in_channels_, h, w, kernel_, stride_, padding_};
  }
  // Accumulates the parameter grads and, when `dx` is non-null, writes
  // dL/d input there.
  void backward_into(const tensor::Tensor& grad_output, float* dx);

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int padding_;
  bool has_bias_;
  Param weight_;  // [outC, inC*k*k]
  Param bias_;    // [outC]
  // [N, inC*k*k, oh*ow] im2col columns of the last forward.
  tensor::Tensor cols_;
  int in_n_ = 0, in_h_ = 0, in_w_ = 0;  // last forward's input dims
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

}  // namespace fedsu::nn

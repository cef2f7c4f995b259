// Pointwise activations.
#pragma once

#include "nn/module.h"

namespace fedsu::nn {

// Backward gates on the layer's own output (tensor::vec::relu_grad), so no
// copy of the input is kept.
class ReLU : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

// Reshapes [N, C, H, W] (or any rank >= 2) to [N, rest].
class Flatten : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int> in_shape_;
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

}  // namespace fedsu::nn

// Spatial pooling layers over NCHW tensors.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace fedsu::nn {

class MaxPool2d : public Module {
 public:
  // Non-overlapping by default (stride = kernel).
  explicit MaxPool2d(int kernel, int stride = 0);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  int kernel_;
  int stride_;
  std::vector<int> in_shape_;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(int kernel, int stride = 0);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "AvgPool2d"; }

 private:
  int kernel_;
  int stride_;
  std::vector<int> in_shape_;
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

// Pools each channel plane to a single value: [N,C,H,W] -> [N,C].
class GlobalAvgPool : public Module {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<int> in_shape_;
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

}  // namespace fedsu::nn

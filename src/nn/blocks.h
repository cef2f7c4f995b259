// Composite blocks for the ResNet-style and DenseNet-style model zoo.
#pragma once

#include <memory>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedsu::nn {

// Basic residual block: conv-bn-relu-conv-bn + identity (or 1x1 projection
// when the channel count or stride changes), followed by ReLU.
class ResidualBlock : public Module {
 public:
  ResidualBlock(int in_channels, int out_channels, int stride, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "ResidualBlock"; }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> projection_;  // nullptr when identity shortcut
  std::unique_ptr<BatchNorm2d> projection_bn_;
  tensor::Tensor mid_;       // post-ReLU mid activations; gate of the mid ReLU
  tensor::Tensor out_;       // post-ReLU block output; gate of the final ReLU
  tensor::Tensor grad_out_;  // grad_output through the final ReLU gate
  tensor::Tensor grad_mid_;  // conv2's dL/d input through the mid ReLU gate
  tensor::Tensor dx_;
};

// DenseNet-style layer: bn-relu-conv(growth) whose output is concatenated
// with the input along channels.
class DenseLayer : public Module {
 public:
  DenseLayer(int in_channels, int growth, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "DenseLayer"; }

 private:
  int in_channels_;
  int growth_;
  BatchNorm2d bn_;
  ReLU relu_;
  Conv2d conv_;
  std::vector<int> in_shape_;
  tensor::Tensor out_;
  tensor::Tensor grad_fresh_;  // the new channels' slice of grad_output
  tensor::Tensor dx_;
};

// DenseNet transition: bn-relu-1x1 conv (channel compression) + 2x2 avg pool.
class TransitionLayer : public Module {
 public:
  TransitionLayer(int in_channels, int out_channels, util::Rng& rng);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "TransitionLayer"; }

 private:
  Sequential body_;
};

}  // namespace fedsu::nn

// Batch normalization over NCHW channel planes.
//
// Running mean/variance are registered as non-trainable Params so they ride
// along in the synchronized FL state vector exactly like in real FedAvg
// deployments (where BN buffers are averaged with the weights).
#pragma once

#include "nn/module.h"

namespace fedsu::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int channels, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "BatchNorm2d"; }

 private:
  int channels_;
  float momentum_;
  float epsilon_;
  Param gamma_;         // scale, trainable
  Param beta_;          // shift, trainable
  Param running_mean_;  // buffer
  Param running_var_;   // buffer
  // Statistics of the last training forward, needed in backward.
  std::vector<float> batch_mean_;
  std::vector<float> batch_inv_std_;
  tensor::Tensor xhat_;  // normalized activations, input-shaped
  bool last_forward_train_ = false;
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

}  // namespace fedsu::nn

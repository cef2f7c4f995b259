// Fully-connected layer: y = x W^T + b, x:[N,in], W:[out,in], b:[out].
#pragma once

#include "nn/module.h"
#include "util/rng.h"

namespace fedsu::nn {

class Linear : public Module {
 public:
  Linear(int in_features, int out_features, util::Rng& rng,
         bool bias = true);

  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "Linear"; }

 private:
  int in_features_;
  int out_features_;
  bool has_bias_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  tensor::Tensor input_;  // copy of the last forward's (small) input
  tensor::Tensor out_;
  tensor::Tensor dx_;
};

}  // namespace fedsu::nn

#include "nn/sgd.h"

#include "tensor/vectorized.h"

namespace fedsu::nn {

Sgd::Sgd(std::vector<Param*> params, SgdOptions options)
    : params_(std::move(params)), options_(options) {
  if (options_.momentum != 0.0f) {
    velocity_.resize(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
      velocity_[i].assign(params_[i]->value.size(), 0.0f);
    }
  }
}

void Sgd::step() {
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float mu = options_.momentum;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    if (!p.trainable) continue;
    // Restrict-qualified so the elementwise update vectorizes; the baseline
    // ISA has no multiply-add to contract, so the bits are the scalar loop's.
    float* FEDSU_RESTRICT v = p.value.data();
    const float* FEDSU_RESTRICT g = p.grad.data();
    if (mu == 0.0f) {
      for (std::size_t j = 0; j < p.value.size(); ++j) {
        v[j] -= lr * (g[j] + wd * v[j]);
      }
    } else {
      float* FEDSU_RESTRICT vel = velocity_[i].data();
      for (std::size_t j = 0; j < p.value.size(); ++j) {
        vel[j] = mu * vel[j] + g[j] + wd * v[j];
        v[j] -= lr * vel[j];
      }
    }
  }
}

}  // namespace fedsu::nn

// Model: a root module plus flat-state-vector plumbing for the FL layer.
//
// FL protocols operate on one contiguous float vector per client (the
// "model state"): all parameters, trainable weights and BN buffers alike,
// concatenated in collect_params() order. That order is deterministic for
// replicas built from the same factory, which is what lets FedSU keep
// bit-identical masks on every client without exchanging them.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fedsu::nn {

class Model {
 public:
  explicit Model(ModulePtr root);

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  // The logits, valid until the next forward() or backward() (module.h).
  const tensor::Tensor& forward(const tensor::Tensor& input, bool train) {
    return root_->forward(input, train);
  }
  // Accumulates every parameter grad for the last forward(). dL/d input is
  // never computed: no caller reads it (Module::backward_params).
  void backward(const tensor::Tensor& grad_output) {
    root_->backward_params(grad_output);
  }

  Module& root() { return *root_; }
  const std::vector<Param*>& parameters() const { return params_; }
  void zero_grads() const { nn::zero_grads(params_); }

  // Total scalar count of the synchronized state (weights + buffers).
  std::size_t state_size() const { return state_size_; }
  // Scalar count of trainable weights only.
  std::size_t trainable_size() const { return trainable_size_; }

  // Flattens all parameter values into one vector (collect order).
  std::vector<float> state_vector() const;
  void write_state(std::span<float> out) const;
  // Loads a flat vector back into the parameters.
  void load_state_vector(std::span<const float> state);

  // Flattens all parameter grads (same layout as state_vector).
  std::vector<float> grad_vector() const;

 private:
  ModulePtr root_;
  std::vector<Param*> params_;
  std::size_t state_size_ = 0;
  std::size_t trainable_size_ = 0;
};

}  // namespace fedsu::nn

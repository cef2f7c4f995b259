// Layer abstraction with hand-written backward passes.
//
// Every Module owns its parameters (value + grad pairs), the buffers it
// returns, and whatever it needs from the last forward() to run backward().
// This is a deliberate "tape-free" design: the FL simulator trains many
// small model replicas and a full autograd graph would add allocation churn
// without buying anything for these fixed feed-forward topologies.
//
// Reference contract. forward() and backward() return a reference to a
// buffer the module owns and reuses (tensor::Tensor::resize), so a warmed
// training step allocates nothing. The returned tensor stays valid until
// that module's next forward() or backward(); copy it to keep it longer.
// No layer keeps a pointer to its input: whatever backward() needs (im2col
// columns, normalized activations, argmax indices, its own output, a copy
// of a small input) lives in buffers the layer owns.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedsu::nn {

// A learnable (or buffered) tensor. `trainable == false` marks state that is
// synchronized between FL clients but not updated by the optimizer
// (e.g. BatchNorm running statistics).
struct Param {
  tensor::Tensor value;
  tensor::Tensor grad;
  std::string name;
  bool trainable = true;
};

class Module {
 public:
  virtual ~Module() = default;

  // Runs the layer; `train` selects training-time behaviour (batch
  // statistics) and prepares the layer for backward().
  virtual const tensor::Tensor& forward(const tensor::Tensor& input,
                                        bool train) = 0;

  // Propagates `grad_output` (dL/d output) backwards, accumulating into the
  // layer's parameter grads and returning dL/d input. Must be called after
  // a matching forward().
  virtual const tensor::Tensor& backward(const tensor::Tensor& grad_output) = 0;

  // backward() for a layer whose dL/d input nobody reads (the first layer
  // of a model): accumulates the same parameter grads, bit for bit, and
  // may skip computing dL/d input. The default runs backward() and drops
  // its result.
  virtual void backward_params(const tensor::Tensor& grad_output) {
    (void)backward(grad_output);
  }

  // Appends pointers to all parameters (trainable and buffers) in a stable,
  // deterministic order. The FL protocols rely on this order being identical
  // across model replicas built from the same factory.
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  virtual std::string name() const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

// Zeroes the grads of every param in the list.
void zero_grads(const std::vector<Param*>& params);

}  // namespace fedsu::nn

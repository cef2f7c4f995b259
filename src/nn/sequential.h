// Linear chain of modules.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace fedsu::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  // Builder-style append; returns *this for chaining.
  Sequential& add(ModulePtr module);

  // Each module reads its predecessor's returned buffer; the result is the
  // last module's buffer (or `input` itself when the chain is empty).
  const tensor::Tensor& forward(const tensor::Tensor& input,
                                bool train) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  // Runs backward() through all modules but the first, which gets
  // backward_params().
  void backward_params(const tensor::Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "Sequential"; }

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace fedsu::nn

#include "nn/sequential.h"

#include <stdexcept>

namespace fedsu::nn {

Sequential& Sequential::add(ModulePtr module) {
  if (!module) throw std::invalid_argument("Sequential::add: null module");
  modules_.push_back(std::move(module));
  return *this;
}

const tensor::Tensor& Sequential::forward(const tensor::Tensor& input,
                                          bool train) {
  const tensor::Tensor* x = &input;
  for (auto& m : modules_) x = &m->forward(*x, train);
  return *x;
}

const tensor::Tensor& Sequential::backward(const tensor::Tensor& grad_output) {
  const tensor::Tensor* g = &grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = &(*it)->backward(*g);
  }
  return *g;
}

void Sequential::backward_params(const tensor::Tensor& grad_output) {
  if (modules_.empty()) return;
  const tensor::Tensor* g = &grad_output;
  for (std::size_t i = modules_.size() - 1; i > 0; --i) {
    g = &modules_[i]->backward(*g);
  }
  modules_.front()->backward_params(*g);
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& m : modules_) m->collect_params(out);
}

}  // namespace fedsu::nn

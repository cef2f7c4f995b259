#include "nn/activation.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/vectorized.h"

namespace fedsu::nn {

const tensor::Tensor& ReLU::forward(const tensor::Tensor& input,
                                    bool /*train*/) {
  out_.resize(input.shape());
  tensor::vec::relu(out_.data(), input.data(), input.size());
  return out_;
}

const tensor::Tensor& ReLU::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(out_)) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  dx_.resize(out_.shape());
  tensor::vec::relu_grad(dx_.data(), grad_output.data(), out_.data(),
                         out_.size());
  return dx_;
}

const tensor::Tensor& Flatten::forward(const tensor::Tensor& input,
                                       bool /*train*/) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten::forward: rank < 2");
  }
  in_shape_ = input.shape();
  const int n = input.dim(0);
  out_.resize({n, static_cast<int>(input.size()) / n});
  std::copy_n(input.data(), input.size(), out_.data());
  return out_;
}

const tensor::Tensor& Flatten::backward(const tensor::Tensor& grad_output) {
  if (grad_output.size() != tensor::shape_size(in_shape_)) {
    throw std::invalid_argument("Flatten::backward: shape mismatch");
  }
  dx_.resize(in_shape_);
  std::copy_n(grad_output.data(), grad_output.size(), dx_.data());
  return dx_;
}

}  // namespace fedsu::nn

#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace fedsu::tensor {

std::size_t shape_size(std::span<const int> shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_size(shape_) != data_.size()) {
    throw std::invalid_argument("Tensor: shape/data size mismatch");
  }
}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

void Tensor::resize(std::span<const int> new_shape) {
  if (std::equal(new_shape.begin(), new_shape.end(), shape_.begin(),
                 shape_.end())) {
    return;
  }
  const std::size_t n = shape_size(new_shape);
  shape_.assign(new_shape.begin(), new_shape.end());
  data_.resize(n);
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace fedsu::tensor

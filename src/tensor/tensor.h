// Dense, contiguous, row-major float32 tensor.
//
// This is deliberately a concrete value type (no views, no broadcasting
// lattice): the neural-network layers in src/nn do their own indexing, and
// a simple flat buffer keeps the FL payload accounting (bytes on the wire)
// trivially exact.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fedsu::tensor {

class Tensor {
 public:
  Tensor() = default;

  // Constructs a zero-filled tensor of the given shape.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape)
      : Tensor(std::vector<int>(shape)) {}

  // Constructs from shape + data (sizes must match).
  Tensor(std::vector<int> shape, std::vector<float> data);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<int> shape, float value);
  static Tensor from_scalar(float value) { return Tensor({1}, {value}); }

  const std::vector<int>& shape() const { return shape_; }
  int dim(std::size_t axis) const {
    assert(axis < shape_.size());
    return shape_[axis];
  }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  // 2-D access (row-major).
  float& at(int r, int c) {
    assert(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  float at(int r, int c) const {
    assert(rank() == 2);
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
  }

  // 4-D access (NCHW).
  float& at(int n, int c, int h, int w) {
    assert(rank() == 4);
    return data_[offset4(n, c, h, w)];
  }
  float at(int n, int c, int h, int w) const {
    assert(rank() == 4);
    return data_[offset4(n, c, h, w)];
  }

  // Returns a reshaped copy-free tensor (element count must match).
  Tensor reshaped(std::vector<int> new_shape) const;

  // Re-shapes in place, reusing the existing heap buffer whenever its
  // capacity suffices (the layer buffers and per-batch scratch tensors in
  // the training loop rely on this to stop reallocating). An unchanged
  // shape is a no-op, and the braced form `t.resize({n, c, h, w})` builds no
  // temporary vector, so a steady-state resize never touches the heap.
  // Surviving elements keep their old values and grown elements are zero —
  // callers that need a clean buffer must overwrite or zero() it.
  void resize(std::initializer_list<int> new_shape) {
    resize(std::span<const int>(new_shape.begin(), new_shape.size()));
  }
  void resize(std::span<const int> new_shape);

  void fill(float value);
  void zero() { fill(0.0f); }

  // Human-readable "[2, 3, 4]" for diagnostics.
  std::string shape_string() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::size_t offset4(int n, int c, int h, int w) const {
    const std::size_t C = shape_[1];
    const std::size_t H = shape_[2];
    const std::size_t W = shape_[3];
    return ((static_cast<std::size_t>(n) * C + c) * H + h) * W + w;
  }

  std::vector<int> shape_;
  std::vector<float> data_;
};

// Number of elements implied by a shape (throws on a negative dim).
std::size_t shape_size(std::span<const int> shape);

}  // namespace fedsu::tensor

#include "nn/blocks.h"

#include <algorithm>
#include <stdexcept>

#include "nn/pooling.h"
#include "tensor/vectorized.h"
#include "util/scratch_arena.h"

namespace fedsu::nn {

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride,
                             util::Rng& rng)
    : conv1_(in_channels, out_channels, 3, rng, stride, 1, /*bias=*/false),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, rng, 1, 1, /*bias=*/false),
      bn2_(out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    projection_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, rng,
                                           stride, 0, /*bias=*/false);
    projection_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

const tensor::Tensor& ResidualBlock::forward(const tensor::Tensor& input,
                                             bool train) {
  const tensor::Tensor& pre_mid =
      bn1_.forward(conv1_.forward(input, train), train);
  mid_.resize(pre_mid.shape());
  tensor::vec::relu(mid_.data(), pre_mid.data(), pre_mid.size());
  const tensor::Tensor& main = bn2_.forward(conv2_.forward(mid_, train), train);
  const tensor::Tensor& shortcut =
      projection_ ? projection_bn_->forward(projection_->forward(input, train),
                                            train)
                  : input;
  // The pre-activation sum lives only until the clamp: backward gates on
  // the clamped output.
  const std::size_t n = main.size();
  util::ScratchArena& arena = util::ScratchArena::local();
  util::ScratchArena::Frame frame(arena);
  float* sum = arena.floats(n);
  std::copy_n(main.data(), n, sum);
  tensor::vec::add(sum, shortcut.data(), n);
  out_.resize(main.shape());
  tensor::vec::relu(out_.data(), sum, n);
  return out_;
}

const tensor::Tensor& ResidualBlock::backward(
    const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(out_)) {
    throw std::invalid_argument("ResidualBlock::backward: shape mismatch");
  }
  // Final ReLU gate.
  grad_out_.resize(out_.shape());
  tensor::vec::relu_grad(grad_out_.data(), grad_output.data(), out_.data(),
                         out_.size());
  // Main path, through the mid ReLU gate.
  const tensor::Tensor& g_mid = conv2_.backward(bn2_.backward(grad_out_));
  grad_mid_.resize(mid_.shape());
  tensor::vec::relu_grad(grad_mid_.data(), g_mid.data(), mid_.data(),
                         mid_.size());
  const tensor::Tensor& d_main = conv1_.backward(bn1_.backward(grad_mid_));
  // Shortcut path.
  const tensor::Tensor& d_shortcut =
      projection_ ? projection_->backward(projection_bn_->backward(grad_out_))
                  : grad_out_;
  dx_.resize(d_main.shape());
  std::copy_n(d_main.data(), d_main.size(), dx_.data());
  tensor::vec::add(dx_.data(), d_shortcut.data(), dx_.size());
  return dx_;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
  conv1_.collect_params(out);
  bn1_.collect_params(out);
  conv2_.collect_params(out);
  bn2_.collect_params(out);
  if (projection_) {
    projection_->collect_params(out);
    projection_bn_->collect_params(out);
  }
}

DenseLayer::DenseLayer(int in_channels, int growth, util::Rng& rng)
    : in_channels_(in_channels),
      growth_(growth),
      bn_(in_channels),
      conv_(in_channels, growth, 3, rng, 1, 1, /*bias=*/false) {}

const tensor::Tensor& DenseLayer::forward(const tensor::Tensor& input,
                                          bool train) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw std::invalid_argument("DenseLayer::forward: bad input " +
                                input.shape_string());
  }
  in_shape_ = input.shape();
  const tensor::Tensor& fresh =
      conv_.forward(relu_.forward(bn_.forward(input, train), train), train);
  // Concatenate [input, fresh] along channels.
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_size = in_channels_ * plane;
  const std::size_t fresh_size = growth_ * plane;
  out_.resize({n, in_channels_ + growth_, h, w});
  for (int in = 0; in < n; ++in) {
    float* y = out_.data() + in * (in_size + fresh_size);
    std::copy_n(input.data() + in * in_size, in_size, y);
    std::copy_n(fresh.data() + in * fresh_size, fresh_size, y + in_size);
  }
  return out_;
}

const tensor::Tensor& DenseLayer::backward(const tensor::Tensor& grad_output) {
  const int n = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  if (grad_output.rank() != 4 ||
      grad_output.dim(1) != in_channels_ + growth_) {
    throw std::invalid_argument("DenseLayer::backward: bad grad " +
                                grad_output.shape_string());
  }
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_size = in_channels_ * plane;
  const std::size_t fresh_size = growth_ * plane;
  // The fresh channels' gradient runs back through conv-relu-bn; the
  // passthrough channels' gradient adds onto the result.
  grad_fresh_.resize({n, growth_, h, w});
  for (int in = 0; in < n; ++in) {
    std::copy_n(grad_output.data() + in * (in_size + fresh_size) + in_size,
                fresh_size, grad_fresh_.data() + in * fresh_size);
  }
  const tensor::Tensor& d_fresh =
      bn_.backward(relu_.backward(conv_.backward(grad_fresh_)));
  dx_.resize(in_shape_);
  for (int in = 0; in < n; ++in) {
    float* dx = dx_.data() + in * in_size;
    std::copy_n(d_fresh.data() + in * in_size, in_size, dx);
    tensor::vec::add(dx, grad_output.data() + in * (in_size + fresh_size),
                     in_size);
  }
  return dx_;
}

void DenseLayer::collect_params(std::vector<Param*>& out) {
  bn_.collect_params(out);
  conv_.collect_params(out);
}

TransitionLayer::TransitionLayer(int in_channels, int out_channels,
                                 util::Rng& rng) {
  body_.add(std::make_unique<BatchNorm2d>(in_channels));
  body_.add(std::make_unique<ReLU>());
  body_.add(std::make_unique<Conv2d>(in_channels, out_channels, 1, rng, 1, 0,
                                     /*bias=*/false));
  body_.add(std::make_unique<AvgPool2d>(2));
}

const tensor::Tensor& TransitionLayer::forward(const tensor::Tensor& input,
                                               bool train) {
  return body_.forward(input, train);
}

const tensor::Tensor& TransitionLayer::backward(
    const tensor::Tensor& grad_output) {
  return body_.backward(grad_output);
}

void TransitionLayer::collect_params(std::vector<Param*>& out) {
  body_.collect_params(out);
}

}  // namespace fedsu::nn

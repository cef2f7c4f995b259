#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

namespace fedsu::nn {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float epsilon)
    : channels_(channels), momentum_(momentum), epsilon_(epsilon) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels <= 0");
  gamma_.value = tensor::Tensor::full({channels}, 1.0f);
  gamma_.grad = tensor::Tensor({channels});
  gamma_.name = "bn.gamma";
  beta_.value = tensor::Tensor({channels});
  beta_.grad = tensor::Tensor({channels});
  beta_.name = "bn.beta";
  running_mean_.value = tensor::Tensor({channels});
  running_mean_.grad = tensor::Tensor({channels});
  running_mean_.name = "bn.running_mean";
  running_mean_.trainable = false;
  running_var_.value = tensor::Tensor::full({channels}, 1.0f);
  running_var_.grad = tensor::Tensor({channels});
  running_var_.name = "bn.running_var";
  running_var_.trainable = false;
}

const tensor::Tensor& BatchNorm2d::forward(const tensor::Tensor& input,
                                           bool train) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d::forward: bad input " +
                                input.shape_string());
  }
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t per_channel = static_cast<std::size_t>(n) * plane;
  last_forward_train_ = train;
  // Every element of out_ (and, in training, xhat_) is written below.
  out_.resize(input.shape());
  float* out = out_.data();

  if (train) {
    batch_mean_.assign(channels_, 0.0f);
    batch_inv_std_.assign(channels_, 0.0f);
    xhat_.resize(input.shape());
    for (int c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int in = 0; in < n; ++in) {
        const float* p = input.data() +
                         (static_cast<std::size_t>(in) * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += p[i];
          sq += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mean = sum / static_cast<double>(per_channel);
      const double var = sq / static_cast<double>(per_channel) - mean * mean;
      const double clamped_var = var < 0.0 ? 0.0 : var;
      batch_mean_[c] = static_cast<float>(mean);
      batch_inv_std_[c] =
          static_cast<float>(1.0 / std::sqrt(clamped_var + epsilon_));
      running_mean_.value[static_cast<std::size_t>(c)] =
          (1.0f - momentum_) * running_mean_.value[static_cast<std::size_t>(c)] +
          momentum_ * static_cast<float>(mean);
      running_var_.value[static_cast<std::size_t>(c)] =
          (1.0f - momentum_) * running_var_.value[static_cast<std::size_t>(c)] +
          momentum_ * static_cast<float>(clamped_var);
      const float g = gamma_.value[static_cast<std::size_t>(c)];
      const float b = beta_.value[static_cast<std::size_t>(c)];
      for (int in = 0; in < n; ++in) {
        const std::size_t base =
            (static_cast<std::size_t>(in) * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const float xhat =
              (input.data()[base + i] - batch_mean_[c]) * batch_inv_std_[c];
          xhat_[base + i] = xhat;
          out[base + i] = g * xhat + b;
        }
      }
    }
  } else {
    for (int c = 0; c < channels_; ++c) {
      const float mean = running_mean_.value[static_cast<std::size_t>(c)];
      const float inv_std = 1.0f /
          std::sqrt(running_var_.value[static_cast<std::size_t>(c)] + epsilon_);
      const float g = gamma_.value[static_cast<std::size_t>(c)];
      const float b = beta_.value[static_cast<std::size_t>(c)];
      for (int in = 0; in < n; ++in) {
        const std::size_t base =
            (static_cast<std::size_t>(in) * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          out[base + i] =
              g * ((input.data()[base + i] - mean) * inv_std) + b;
        }
      }
    }
  }
  return out_;
}

const tensor::Tensor& BatchNorm2d::backward(const tensor::Tensor& grad_output) {
  if (!last_forward_train_) {
    throw std::logic_error("BatchNorm2d::backward: last forward was eval-mode");
  }
  if (!grad_output.same_shape(xhat_)) {
    throw std::invalid_argument("BatchNorm2d::backward: shape mismatch");
  }
  const int n = xhat_.dim(0), h = xhat_.dim(2), w = xhat_.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const double m = static_cast<double>(n) * plane;
  dx_.resize(xhat_.shape());  // every element is written below

  for (int c = 0; c < channels_; ++c) {
    // Accumulate sum(dy) and sum(dy * xhat) for this channel.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int in = 0; in < n; ++in) {
      const std::size_t base =
          (static_cast<std::size_t>(in) * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float dy = grad_output.data()[base + i];
        sum_dy += dy;
        sum_dy_xhat += static_cast<double>(dy) * xhat_[base + i];
      }
    }
    gamma_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy_xhat);
    beta_.grad[static_cast<std::size_t>(c)] += static_cast<float>(sum_dy);
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float inv_std = batch_inv_std_[c];
    // dx = (g * inv_std / m) * (m * dy - sum_dy - xhat * sum_dy_xhat)
    const float k = g * inv_std / static_cast<float>(m);
    for (int in = 0; in < n; ++in) {
      const std::size_t base =
          (static_cast<std::size_t>(in) * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float dy = grad_output.data()[base + i];
        dx_[base + i] =
            k * (static_cast<float>(m) * dy - static_cast<float>(sum_dy) -
                 xhat_[base + i] * static_cast<float>(sum_dy_xhat));
      }
    }
  }
  return dx_;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

}  // namespace fedsu::nn

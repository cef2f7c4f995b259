#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace fedsu::nn {

float SoftmaxCrossEntropy::forward(const tensor::Tensor& logits,
                                   const std::vector<int>& labels) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("SoftmaxCrossEntropy: logits must be [N, C]");
  }
  const int n = logits.dim(0);
  const int c = logits.dim(1);
  if (static_cast<std::size_t>(n) != labels.size()) {
    throw std::invalid_argument("SoftmaxCrossEntropy: label count mismatch");
  }
  probs_.resize({n, c});  // every element is written below
  labels_ = labels;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    if (labels[static_cast<std::size_t>(i)] < 0 ||
        labels[static_cast<std::size_t>(i)] >= c) {
      throw std::invalid_argument("SoftmaxCrossEntropy: label out of range");
    }
    const float* row = logits.data() + static_cast<std::size_t>(i) * c;
    float maxv = row[0];
    for (int j = 1; j < c; ++j) maxv = std::max(maxv, row[j]);
    double denom = 0.0;
    for (int j = 0; j < c; ++j) denom += std::exp(static_cast<double>(row[j] - maxv));
    const double log_denom = std::log(denom);
    float* prow = probs_.data() + static_cast<std::size_t>(i) * c;
    for (int j = 0; j < c; ++j) {
      prow[j] = static_cast<float>(
          std::exp(static_cast<double>(row[j] - maxv) - log_denom));
    }
    const int y = labels[static_cast<std::size_t>(i)];
    total += -(static_cast<double>(row[y] - maxv) - log_denom);
  }
  return static_cast<float>(total / n);
}

const tensor::Tensor& SoftmaxCrossEntropy::backward() {
  if (probs_.empty()) {
    throw std::logic_error("SoftmaxCrossEntropy::backward before forward");
  }
  const int n = probs_.dim(0);
  const int c = probs_.dim(1);
  grad_.resize(probs_.shape());
  std::copy_n(probs_.data(), probs_.size(), grad_.data());
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    float* row = grad_.data() + static_cast<std::size_t>(i) * c;
    row[labels_[static_cast<std::size_t>(i)]] -= 1.0f;
    for (int j = 0; j < c; ++j) row[j] *= inv_n;
  }
  return grad_;
}

float accuracy(const tensor::Tensor& logits, const std::vector<int>& labels) {
  if (logits.rank() != 2 ||
      static_cast<std::size_t>(logits.dim(0)) != labels.size()) {
    throw std::invalid_argument("accuracy: shape mismatch");
  }
  const int n = logits.dim(0);
  const int c = logits.dim(1);
  if (n == 0) return 0.0f;
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t pred =
        tensor::argmax(logits.data() + static_cast<std::size_t>(i) * c,
                       static_cast<std::size_t>(c));
    if (static_cast<int>(pred) == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(n);
}

}  // namespace fedsu::nn

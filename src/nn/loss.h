// Softmax cross-entropy loss with integrated backward.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace fedsu::nn {

class SoftmaxCrossEntropy {
 public:
  // logits: [N, C]; labels: N class indices in [0, C). Returns mean loss.
  float forward(const tensor::Tensor& logits, const std::vector<int>& labels);

  // dL/dlogits for the last forward() (mean reduction), in a buffer the
  // loss owns: valid until the next forward() or backward().
  const tensor::Tensor& backward();

  // Class probabilities from the last forward (softmax output), [N, C].
  const tensor::Tensor& probabilities() const { return probs_; }

 private:
  tensor::Tensor probs_;
  std::vector<int> labels_;
  tensor::Tensor grad_;
};

// Rows whose argmax (ties to the lowest class) matches the label.
int count_correct(const tensor::Tensor& logits, const std::vector<int>& labels);
// Fraction of rows whose argmax matches the label.
float accuracy(const tensor::Tensor& logits, const std::vector<int>& labels);

}  // namespace fedsu::nn

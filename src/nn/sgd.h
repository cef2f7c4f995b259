// SGD optimizer with optional momentum and decoupled weight decay,
// matching the paper's training setup (plain SGD + weight decay 1e-3).
#pragma once

#include <vector>

#include "nn/module.h"

namespace fedsu::nn {

struct SgdOptions {
  float learning_rate = 0.01f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd {
 public:
  // `params` must outlive the optimizer; the order defines velocity slots.
  Sgd(std::vector<Param*> params, SgdOptions options);

  // Applies one update using the accumulated grads (does not zero them).
  void step();

 private:
  std::vector<Param*> params_;
  SgdOptions options_;
  std::vector<std::vector<float>> velocity_;  // lazily sized, empty if no momentum
};

}  // namespace fedsu::nn

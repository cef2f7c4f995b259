#include "nn/schedule.h"

#include <cmath>
#include <stdexcept>

namespace fedsu::nn {

ConstantLr::ConstantLr(float base) : base_(base) {
  if (base <= 0.0f) throw std::invalid_argument("ConstantLr: base <= 0");
}

float ConstantLr::lr(int round) const {
  if (round < 0) throw std::invalid_argument("ConstantLr: negative round");
  return base_;
}

InverseSqrtLr::InverseSqrtLr(float base, int warmup)
    : base_(base), warmup_(warmup) {
  if (base <= 0.0f || warmup < 0) {
    throw std::invalid_argument("InverseSqrtLr: bad arguments");
  }
}

float InverseSqrtLr::lr(int round) const {
  if (round < 0) throw std::invalid_argument("InverseSqrtLr: negative round");
  if (round < warmup_) {
    return base_ * static_cast<float>(round + 1) / static_cast<float>(warmup_);
  }
  return base_ / std::sqrt(static_cast<float>(round - warmup_ + 1));
}

double eq13_ratio(const LrSchedule& schedule, int horizon) {
  if (horizon <= 0) throw std::invalid_argument("eq13_ratio: horizon <= 0");
  double sum = 0.0, sum_sq = 0.0;
  for (int k = 0; k < horizon; ++k) {
    const double lr = schedule.lr(k);
    sum += lr;
    sum_sq += lr * lr;
  }
  return sum > 0.0 ? sum_sq / sum : 0.0;
}

}  // namespace fedsu::nn

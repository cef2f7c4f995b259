// Learning-rate schedules.
//
// Theorem 1 (paper §IV-D) guarantees FedSU convergence when the schedule
// satisfies Eq. 13: sum(lr) -> inf and sum(lr^2)/sum(lr) -> 0; the paper
// suggests lr_k = O(1/sqrt(T)). All schedules here expose lr(round).
#pragma once

#include <string>

namespace fedsu::nn {

class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  // Learning rate to use in (0-based) round k.
  virtual float lr(int round) const = 0;
  virtual std::string name() const = 0;
};

// lr_k = base (the paper's evaluation setup uses constant rates).
class ConstantLr : public LrSchedule {
 public:
  explicit ConstantLr(float base);
  float lr(int round) const override;
  std::string name() const override { return "constant"; }

 private:
  float base_;
};

// lr_k = base / sqrt(k + 1): satisfies Eq. 13.
class InverseSqrtLr : public LrSchedule {
 public:
  // `warmup` rounds ramp linearly from 0 to base first (0 = no warmup).
  explicit InverseSqrtLr(float base, int warmup = 0);
  float lr(int round) const override;
  std::string name() const override { return "inverse-sqrt"; }

 private:
  float base_;
  int warmup_;
};

// Checks Eq. 13 numerically over `horizon` rounds: returns
// sum(lr^2)/sum(lr), which must shrink as the horizon grows for a
// convergent schedule.
double eq13_ratio(const LrSchedule& schedule, int horizon);

}  // namespace fedsu::nn

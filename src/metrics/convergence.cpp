#include "metrics/convergence.h"

#include <stdexcept>

namespace fedsu::metrics {

ConvergenceTracker::ConvergenceTracker(float target_accuracy)
    : target_(target_accuracy) {
  if (target_accuracy <= 0.0f || target_accuracy > 1.0f) {
    throw std::invalid_argument("ConvergenceTracker: target out of (0, 1]");
  }
}

void ConvergenceTracker::observe(const fl::RoundRecord& record) {
  if (!record.test_accuracy) return;
  if (!reached_ && *record.test_accuracy >= target_) {
    reached_ = {record.elapsed_time_s, record.round + 1};
  }
}

double ConvergenceTracker::time_to_target_s() const {
  if (!reached_) throw std::logic_error("ConvergenceTracker: not reached");
  return reached_->first;
}

int ConvergenceTracker::rounds_to_target() const {
  if (!reached_) throw std::logic_error("ConvergenceTracker: not reached");
  return reached_->second;
}

RunSummary summarize(const std::vector<fl::RoundRecord>& records) {
  RunSummary s;
  s.rounds = static_cast<int>(records.size());
  double ratio_sum = 0.0;
  double bytes = 0.0;
  for (const auto& r : records) {
    s.total_time_s = r.elapsed_time_s;
    ratio_sum += r.sparsification_ratio;
    bytes += static_cast<double>(r.bytes_up + r.bytes_down);
    if (r.test_accuracy) {
      s.final_accuracy = *r.test_accuracy;
      s.best_accuracy = std::max(s.best_accuracy, *r.test_accuracy);
    }
  }
  if (s.rounds > 0) {
    s.mean_round_time_s = s.total_time_s / s.rounds;
    s.mean_sparsification_ratio = ratio_sum / s.rounds;
  }
  s.total_gigabytes = bytes / 1e9;
  return s;
}

}  // namespace fedsu::metrics

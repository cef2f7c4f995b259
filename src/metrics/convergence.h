// Time-to-accuracy tracking (Table I) and round-record summaries.
#pragma once

#include <optional>
#include <vector>

#include "fl/simulation.h"

namespace fedsu::metrics {

// Watches a stream of RoundRecords for the first test evaluation reaching a
// target accuracy.
class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(float target_accuracy);

  void observe(const fl::RoundRecord& record);

  bool reached() const { return reached_.has_value(); }
  // Simulated seconds / rounds when the target was first reached.
  double time_to_target_s() const;
  int rounds_to_target() const;

 private:
  float target_;
  std::optional<std::pair<double, int>> reached_;  // (elapsed time, round+1)
};

struct RunSummary {
  int rounds = 0;
  double total_time_s = 0.0;
  double mean_round_time_s = 0.0;
  double mean_sparsification_ratio = 0.0;
  double total_gigabytes = 0.0;  // up + down, all participants
  float final_accuracy = 0.0f;
  float best_accuracy = 0.0f;
};

RunSummary summarize(const std::vector<fl::RoundRecord>& records);

}  // namespace fedsu::metrics

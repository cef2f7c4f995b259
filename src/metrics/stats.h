// Small statistics helpers: CDFs (Figs. 2b, 7), the normalized-difference
// metric (Fig. 2), and per-parameter trajectory recording (Figs. 1, 6).
#pragma once

#include <cstddef>
#include <vector>

namespace fedsu::metrics {

// Accumulates samples; answers quantile queries and dumps CDF points.
class Cdf {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }

  // q in [0, 1]; nearest-rank quantile.
  double quantile(double q) const;

  // Fraction of samples <= x.
  double fraction_below(double x) const;

  // `points` evenly-spaced CDF samples as (value, cumulative fraction).
  std::vector<std::pair<double, double>> curve(int points = 50) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// Normalized difference (CMFL's metric, paper Fig. 2):
//   ND_k = ||delta_{k} - delta_{k-1}|| / ||delta_{k-1}||
// where delta_k is the round-k global update vector.
class NormalizedDifference {
 public:
  // Feeds the round's update; returns ND when two updates are available.
  // Returns a negative value on the first call (no reference yet).
  double observe(const std::vector<float>& update);

  const std::vector<double>& history() const { return history_; }

 private:
  std::vector<float> prev_update_;
  bool has_prev_ = false;
  std::vector<double> history_;
};

// Records the value of chosen state coordinates every round.
class TrajectoryRecorder {
 public:
  explicit TrajectoryRecorder(std::vector<std::size_t> indices);

  void record(const std::vector<float>& state);

  // series()[i][r]: value of tracked coordinate i at recorded round r.
  const std::vector<std::vector<float>>& series() const { return series_; }

 private:
  std::vector<std::size_t> indices_;
  std::vector<std::vector<float>> series_;
};

}  // namespace fedsu::metrics

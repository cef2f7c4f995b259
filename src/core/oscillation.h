// Second-order oscillation ratio (paper §IV-A, Eq. 2).
//
// For each scalar parameter the tracker ingests the per-round global update
// g_k = x_k - x_{k-1}, forms the second-order difference g'_k = g_k - g_{k-1}
// and maintains exponential moving averages of g'_k and |g'_k|:
//
//     R = |<g'>_theta| / <|g'|>_theta
//
// R near 0 means g' oscillates around zero, i.e. the first difference is
// stable and the parameter follows a linear trajectory. This is the
// regression-free diagnosis FedSU uses: O(1) time and O(1) state per
// parameter per round, no history window.
#pragma once

#include <cstdint>
#include <vector>

#include "io/serialize.h"

namespace fedsu::core {

struct OscillationOptions {
  double ema_decay = 0.9;  // theta in Eq. 2
  // Number of second-order observations required before R is trusted.
  int warmup = 3;
};

class OscillationTracker {
 public:
  OscillationTracker(std::size_t num_params, OscillationOptions options = {});

  std::size_t size() const { return ema_g2_.size(); }

  // Feeds the new first-order difference of parameter j and returns the
  // refreshed oscillation ratio R (1.0 while not yet computable).
  double observe(std::size_t j, float g_new);

  // Current ratio without observing (1.0 when not ready).
  double ratio(std::size_t j) const;

  // True once `warmup` second-order differences have been accumulated.
  bool ready(std::size_t j) const;

  // Forgets parameter j's history (used when a speculation phase ends and
  // the parameter's stale statistics no longer describe reality).
  void reset(std::size_t j);

  std::size_t state_bytes() const;

  // Checkpoint support. deserialize() throws std::runtime_error on invalid
  // options or inconsistent lengths, possibly after overwriting part of the
  // tracker: read into a fresh one.
  void serialize(io::BinaryWriter& writer) const;
  void deserialize(io::BinaryReader& reader);

 private:
  OscillationOptions options_;
  std::vector<float> ema_g2_;
  std::vector<float> ema_abs_g2_;
  std::vector<float> g_prev_;
  // observations_[j]: number of g' values seen; -1 encodes "no g_prev yet".
  std::vector<std::int32_t> observations_;
};

}  // namespace fedsu::core

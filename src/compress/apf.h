// APF — Adaptive Parameter Freezing (Chen et al., ICDCS'21).
//
// Per scalar parameter, APF tracks an "effective perturbation" EP =
// |EMA(update)| / EMA(|update|). A parameter whose EP stays under the
// stability threshold has converged (it only zigzags around a fixed value)
// and is frozen — excluded from synchronization — for a freezing period that
// grows additively each time the parameter proves stable again at the next
// check, and resets when it turns unstable (TCP-style probing).
#pragma once

#include <cstdint>

#include "compress/protocol.h"

namespace fedsu::compress {

struct ApfOptions {
  double stability_threshold = 0.05;  // paper default (§VI-A)
  // For a perfectly alternating (+a, -a, ...) update the EP metric floors at
  // (1 - theta) / (1 + theta); theta = 0.95 puts that floor (0.026) safely
  // under the 0.05 stability threshold so converged zigzagging parameters
  // can actually freeze.
  double ema_decay = 0.95;
  int warmup_rounds = 3;   // EP is meaningless before a few observations
  int initial_period = 1;  // first freezing period, in rounds
};

class Apf : public SyncProtocol {
 public:
  explicit Apf(ApfOptions options = {});

  std::string name() const override { return "APF"; }

  void initialize(std::span<const float> global_state) override;

  SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;

  double last_sparsification_ratio() const override { return last_ratio_; }
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;
  // Frozen parameters are APF's analogue of speculated ones: held locally
  // without transmission.
  Telemetry last_round_telemetry() const override {
    return {frozen_fraction(), 0};
  }

  // Fraction of parameters currently frozen (for tests / Fig. 5 dashed line).
  double frozen_fraction() const;

 private:
  ApfOptions options_;
  // Per-parameter bookkeeping (struct-of-arrays for cache friendliness).
  std::vector<float> ema_update_;
  std::vector<float> ema_abs_update_;
  std::vector<std::int32_t> freeze_remaining_;  // rounds left frozen; 0 = active
  std::vector<std::int32_t> freeze_period_;     // current period length
  std::vector<std::int32_t> observations_;
  double last_ratio_ = 0.0;
};

}  // namespace fedsu::compress

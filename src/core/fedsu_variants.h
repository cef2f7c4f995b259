// Ablation variants of FedSU (paper §VI-D, Fig. 8).
//
//   FedSU-v1: keeps the linearity diagnosis but removes error feedback —
//             a diagnosed-linear parameter speculates for a FIXED number of
//             rounds, then silently returns to regular updating (no error
//             aggregation, no correction).
//   FedSU-v2: removes the linearity diagnosis too — every synchronized
//             parameter enters speculative mode with a preset probability,
//             using the last observed update as its slope, again for a
//             fixed period.
//
// Both run the core::Speculation state machine with the fixed period as
// its first (and only) no-checking period; each keeps only its own exit or
// entry rule. FedSU-v2 never consults the kernel's oscillation tracker.
#pragma once

#include <cstdint>
#include <string>

#include "compress/protocol.h"
#include "core/speculation.h"
#include "util/rng.h"

namespace fedsu::core {

struct FedSuV1Options {
  double t_r = 0.01;
  double ema_decay = 0.98;
  int warmup = 3;
  int fixed_period = 43;  // paper Fig. 8: 43 (CNN) / 58 (DenseNet)
};

class FedSuV1 : public compress::SyncProtocol {
 public:
  explicit FedSuV1(FedSuV1Options options = {});

  std::string name() const override { return "FedSU-v1"; }
  void initialize(std::span<const float> global_state) override;
  compress::SyncResult synchronize(
      const compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;
  double last_sparsification_ratio() const override { return last_ratio_; }
  Telemetry last_round_telemetry() const override {
    return {predictable_fraction(), 0};
  }
  double predictable_fraction() const { return spec_.predictable_fraction(); }

 private:
  Speculation spec_;
  double last_ratio_ = 0.0;
};

struct FedSuV2Options {
  double enter_probability = 0.0053;  // paper Fig. 8: 0.53 % (CNN)
  int fixed_period = 43;
  std::uint64_t seed = 1234;
};

class FedSuV2 : public compress::SyncProtocol {
 public:
  explicit FedSuV2(FedSuV2Options options = {});

  std::string name() const override { return "FedSU-v2"; }
  void initialize(std::span<const float> global_state) override;
  compress::SyncResult synchronize(
      const compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;
  double last_sparsification_ratio() const override { return last_ratio_; }
  Telemetry last_round_telemetry() const override {
    return {predictable_fraction(), 0};
  }
  double predictable_fraction() const { return spec_.predictable_fraction(); }

 private:
  double enter_probability_;
  Speculation spec_;
  bool has_prev_update_ = false;
  util::Rng rng_;
  double last_ratio_ = 0.0;
};

}  // namespace fedsu::core

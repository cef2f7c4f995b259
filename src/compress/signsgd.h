// signSGD with majority vote (Bernstein et al., ICML'18): clients upload one
// sign bit per coordinate plus a scalar step size; the server takes the
// element-wise majority. An extreme-quantization point of comparison for the
// related-work spectrum (§II-B).
//
// Hot-path design (DESIGN.md §15): the vote pass runs in parallel over
// fixed kReduceClientBlock-client blocks, each folding its rows into a
// private int vote panel and a double |update| partial; panels combine in
// ascending block order (integer votes are exact, the double partials keep
// the §5b fixed reduction shape — a single block is the historical serial
// chain bit-for-bit). Byte accounting is wire::measure_signs; the encoder
// only runs in payload-audit mode.
#pragma once

#include "compress/protocol.h"

namespace fedsu::compress {

struct SignSgdOptions {
  // Server step applied along the majority sign, as a fraction of the mean
  // per-round update magnitude observed so far (adaptive scale).
  double step_scale = 1.0;
};

class SignSgd : public SyncProtocol {
 public:
  explicit SignSgd(SignSgdOptions options = {});

  std::string name() const override { return "signSGD"; }
  void initialize(std::span<const float> global_state) override;
  SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;

 private:
  SignSgdOptions options_;
  std::size_t params_ = 0;
  float step_ = 0.0f;  // adaptive per-coordinate step magnitude (an EMA)

  // Round-loop scratch, reused so the steady state is allocation-free:
  // block b owns vote_panels_[b*p, (b+1)*p) and abs_partials_[b].
  std::vector<int> vote_panels_;
  std::vector<double> abs_partials_;
};

}  // namespace fedsu::compress

// CMFL (Wang/Luping et al., ICDCS'19): a client uploads its update only when
// a sufficient fraction of its element-wise signs agree with the previous
// global update ("relevance"); irrelevant updates are withheld.
//
// Hot-path design (DESIGN.md §15): per-client relevance checks are
// independent reads of the shared previous update, so they run in parallel
// over util::ThreadPool with disjoint per-client outputs; the reporting
// subset then aggregates through util::column_sums' fixed block shape —
// both bitwise identical for every thread count (§5b). Byte accounting is
// wire::measure_dense; the encoder only runs in payload-audit mode.
#pragma once

#include "compress/protocol.h"

namespace fedsu::compress {

struct CmflOptions {
  // Paper default (§VI-A): updates with < 80 % sign agreement are withheld.
  double relevance_threshold = 0.8;
};

class Cmfl : public SyncProtocol {
 public:
  explicit Cmfl(CmflOptions options = {});

  std::string name() const override { return "CMFL"; }

  void initialize(std::span<const float> global_state) override;

  SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;

  double last_sparsification_ratio() const override { return last_ratio_; }
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;

  // Relevance of each participant in the most recent round (for tests).
  const std::vector<double>& last_relevances() const { return last_relevances_; }

 private:
  CmflOptions options_;
  std::vector<float> prev_update_;  // last global update (round k-1)
  bool has_prev_update_ = false;
  double last_ratio_ = 0.0;
  std::vector<double> last_relevances_;

  // Round-loop scratch, reused so the steady state is allocation-free.
  // reports_ is byte-wide (not vector<bool>) so the parallel relevance pass
  // writes disjoint slots without bit-packing races.
  std::vector<std::uint8_t> reports_;
  std::vector<double> acc_;
  std::vector<std::span<const float>> reporting_rows_;
};

}  // namespace fedsu::compress

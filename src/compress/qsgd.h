// QSGD-style stochastic uniform quantization (Alistarh et al., NeurIPS'17),
// the quantization baseline the paper's related work discusses (§II-B).
//
// Each client quantizes its update to `bits` levels per coordinate with
// stochastic rounding (unbiased); the server averages dequantized updates
// and broadcasts a quantized global update back.
//
// Hot-path design (DESIGN.md §15): each client's rounding noise comes from
// its own counter-derived stream, Rng(seed).fork(round + 1).fork(id + 1)
// (stream 0 of a round quantizes the broadcast) — a pure function of
// (seed, round, client id), so per-client quantization parallelizes over
// util::ThreadPool with bitwise-identical results for every thread count
// (§5b). Dequantized updates fold through fixed kReduceClientBlock-row
// double panels combined in ascending block order, and byte accounting is
// wire::measure_quantized — the encoder only runs in payload-audit mode.
#pragma once

#include "compress/protocol.h"
#include "util/rng.h"

namespace fedsu::compress {

struct QsgdOptions {
  int bits = 8;  // bits per coordinate on the wire
  std::uint64_t seed = 77;
};

class Qsgd : public SyncProtocol {
 public:
  explicit Qsgd(QsgdOptions options = {});

  std::string name() const override { return "QSGD"; }
  void initialize(std::span<const float> global_state) override;
  SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  // Quantization is dense: nothing is skipped, ratio reflects byte shrink.
  double last_sparsification_ratio() const override { return 0.0; }

  // Quantize/dequantize one vector (exposed for tests). When `levels_out`
  // is non-null it receives the integer levels actually drawn — the wire
  // payload — without changing RNG consumption.
  std::vector<float> quantize_dequantize(
      std::span<const float> v, util::Rng& rng,
      std::vector<std::int32_t>* levels_out = nullptr) const;

 private:
  QsgdOptions options_;
  std::size_t params_ = 0;
  // Stream base: never advanced, only fork()ed per round, so QSGD has no
  // cross-round state to snapshot.
  util::Rng rng_{0};

  // Round-loop scratch, sized on first use and reused thereafter so the
  // steady state is heap-allocation-free. panels_ holds one double
  // accumulator panel per kReduceClientBlock-client block (block b owns
  // [b*p, (b+1)*p)); acc_/mean_update_ are the combined sum and its mean.
  std::vector<double> panels_;
  std::vector<double> acc_;
  std::vector<float> mean_update_;
};

}  // namespace fedsu::compress

// FedSU — Federated Learning with Speculative Updating (paper Algorithm 1).
//
// Per round the manager partitions the model's scalars into:
//   * unpredictable parameters: synchronized normally (mean of client
//     values); their fresh global update feeds the OscillationTracker and,
//     when the ratio R drops below T_R, the parameter enters speculative
//     mode with the last round's update frozen as its slope;
//   * predictable parameters: NOT synchronized. Every client applies the
//     speculative value x + slope and accumulates its local prediction
//     error. When a parameter's no-checking period expires, the errors are
//     aggregated; the feedback signal S = |sum e| / |slope| (Eq. 3) decides
//     whether to extend the period (+1 round) or to end speculation —
//     applying the aggregated error as a correction so the trajectory
//     rejoins the true one (Fig. 6's red crosses).
//
// The per-parameter state machine is core::Speculation (core/speculation.h);
// the manager adds the per-client error accumulators, the churn and
// version bookkeeping around them, the parallel passes and the events.
// Masks and periods are derived purely from globally-identical quantities,
// so every client can maintain its own replica without extra communication
// (paper §V); a late joiner only downloads mask + periods + slopes once
// (join_state_bytes()). A speculation phase that fails its S check keeps
// the parameter's R statistics: Fig. 6 shows speculation re-starting
// shortly after each ending, which a full re-warmup would prevent.
#pragma once

#include <functional>
#include <string>

#include "compress/protocol.h"
#include "core/error_store.h"
#include "core/speculation.h"

namespace fedsu::core {

// Emitted when a parameter enters/leaves speculative mode (Fig. 6 markers).
struct SpecEvent {
  int round = 0;
  std::size_t param = 0;
  bool start = false;  // true: speculation begins; false: it ends
};

class FedSuManager : public compress::SyncProtocol {
 public:
  // `num_clients` is the total population (error accumulators are kept per
  // client id; participants vary per round).
  FedSuManager(int num_clients, FedSuOptions options = {});

  std::string name() const override { return "FedSU"; }

  void initialize(std::span<const float> global_state) override;

  void on_client_join(int client_id) override;

  // Crash/rejoin reconciliation (DESIGN.md §10): wipes the client's error
  // accumulator and stamps it so speculation phases that started while it
  // was away never read its partial sums — Eq. 3 sums from the phase start,
  // which an absent client did not observe. The rejoiner re-downloads
  // mask + periods + slopes (join_state_bytes()), so it also never applies
  // a speculative update from a stale slope.
  std::size_t on_client_rejoin(int client_id) override;

  // Accepts the optional RoundContext::dispatch_rounds version stamps from
  // buffered-async callers (DESIGN.md §11): a participant whose dispatch
  // version predates a parameter's speculation-phase start is fenced out of
  // that parameter's error accumulation — the async analogue of the rejoin
  // stamp, keyed by model version so stale feedback can't corrupt Eq. 3
  // corrections. An empty dispatch_rounds (every synchronous caller) keeps
  // the historical behaviour bit-for-bit.
  //
  // Three passes, each over an index list built by one mask walk
  // (DESIGN.md §13), timed by the core.fedsu.speculate / .feedback /
  // .diagnosis spans: pass 1 averages only the unpredictable columns and
  // scatters prediction errors over the predictable runs; pass 2 folds the
  // expiring errors row by row and applies the Eq. 3 verdicts; pass 3
  // diagnoses the synchronized parameters, then clears the error columns
  // of every demotion in one batch (a promoted column already reads zero).
  compress::SyncResult synchronize(
      const compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;

  std::size_t join_state_bytes() const override {
    return spec_.join_state_bytes();
  }
  // Resident memory FedSU adds on a device (Table II memory inflation).
  std::size_t state_bytes() const;
  void serialize(io::BinaryWriter& writer) const override;
  void deserialize(io::BinaryReader& reader) override;
  double last_sparsification_ratio() const override { return last_ratio_; }
  // Demotions are fallback syncs: speculation ended and the parameter was
  // corrected with the aggregated error, rejoining regular updating.
  Telemetry last_round_telemetry() const override {
    return {predictable_fraction(), diag_.demotions, diag_.promotions};
  }

  // Per-round accounting exposed for diagnosis and the bench harness.
  struct RoundDiagnostics {
    std::size_t unpredictable = 0;  // scalars synchronized normally
    std::size_t expiring = 0;       // error scalars aggregated this round
    std::size_t promotions = 0;
    std::size_t demotions = 0;
  };

  // --- introspection (tests, Fig. 6 / Fig. 7 benches) ---
  const RoundDiagnostics& last_round_diagnostics() const { return diag_; }
  const std::vector<std::uint8_t>& predictable_mask() const {
    return spec_.mask();
  }
  double predictable_fraction() const { return spec_.predictable_fraction(); }
  // Rounds each parameter spent in speculative mode so far.
  const std::vector<std::int32_t>& linear_rounds() const {
    return spec_.linear_rounds();
  }
  int rounds_seen() const { return rounds_seen_; }
  // The sparse per-client error-feedback store (slab residency is what
  // bench_scale contrasts with the dense num_clients x params matrix).
  const SparseErrorStore& error_store() const { return client_err_; }

  void set_event_hook(std::function<void(const SpecEvent&)> hook) {
    event_hook_ = std::move(hook);
  }

 private:
  void emit(const SpecEvent& event) {
    if (event_hook_) event_hook_(event);
  }

  Speculation spec_;
  int num_clients_;
  std::vector<float> global_;
  // Accumulated local prediction error per (client, parameter). Sparse:
  // slabs materialize on first nonzero accumulation and are released on
  // rejoin, with reads of absent slabs yielding exact 0.0f — bit-identical
  // to the dense matrix this replaced (see core/error_store.h).
  SparseErrorStore client_err_;
  // Round (rounds_seen_ clock) when parameter j's current speculation phase
  // started; paired with rejoin_stamp_ to decide, per (client, parameter),
  // whether the client observed the whole phase (see pass 2).
  std::vector<std::int32_t> phase_start_round_;
  // First round from which client i's error accumulation is complete again
  // (0 = always was; bumped by on_client_rejoin).
  std::vector<std::int32_t> rejoin_stamp_;
  RoundDiagnostics diag_;
  int rounds_seen_ = 0;
  double last_ratio_ = 0.0;
  std::function<void(const SpecEvent&)> event_hook_;
};

}  // namespace fedsu::core

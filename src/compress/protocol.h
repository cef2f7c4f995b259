// SyncProtocol: the server-side synchronization contract every scheme
// (FedAvg, CMFL, APF, FedSU, ...) implements.
//
// The simulator is logically centralized: after local training it hands the
// protocol every participant's full local state vector, plus the global
// model they all started from (RoundContext::global), and receives the new
// global state plus exact per-client byte counts. The caller owns the global
// model; a protocol's members hold only the cross-round state it needs
// (masks, EMAs, residuals), and serialize() round-trips all of it, so
// restoring a snapshot next to the model it was taken with resumes the run
// byte-exact. This mirrors the paper's Algorithm 1 while keeping byte
// accounting exact — what travels on the wire is decided here, not by the
// simulator.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fedsu::io {
class BinaryReader;
class BinaryWriter;
}  // namespace fedsu::io

namespace fedsu::compress {

struct RoundContext {
  int round = 0;  // 0-based FL round index
  // The global model every participant started from: the previous round's
  // new_global. The caller owns it and keeps it valid for the duration of
  // the call. Protocols that read it throw std::invalid_argument unless it
  // has the model's length; FedAvg and FedSU run without it.
  std::span<const float> global;
  // Ids of the clients whose updates participate in aggregation this round
  // (the 70 % earliest under the paper's participation model). Parallel to
  // the `client_states` argument of synchronize(). Ids are distinct: one
  // update per client per round, which lets protocols give each
  // participant's per-client state (residuals, error slabs) to exactly one
  // task. Both engines pass them in ascending order.
  std::vector<int> participants;
  // Buffered-async execution (DESIGN.md §11): the model version (protocol
  // aggregation count) each participant's update was trained against,
  // parallel to `participants`. Empty — the default, and what every
  // synchronous caller passes — means every participant trained on the
  // current global state; protocols must treat that case exactly as before
  // the field existed. When non-empty, protocols with per-client cross-round
  // state (e.g. FedSU's error accumulators) can fence out contributions
  // whose dispatch version predates the state's validity window.
  std::vector<int> dispatch_rounds;
};

struct SyncResult {
  // The state every participant holds after synchronization.
  std::vector<float> new_global;
  // Exact bytes moved per participant (same order as ctx.participants).
  std::vector<std::size_t> bytes_up;
  std::vector<std::size_t> bytes_down;
  // Scalars that crossed the wire in each direction, summed over clients —
  // used for the sparsification-ratio metric of Fig. 5.
  std::size_t scalars_up = 0;
  std::size_t scalars_down = 0;
};

class SyncProtocol {
 public:
  virtual ~SyncProtocol() = default;

  virtual std::string name() const = 0;

  // `client_states[i]` is participant i's local state after its local
  // iterations, starting from the previous round's global state. All spans
  // have identical length = model state size.
  virtual SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) = 0;

  // Initial global state registration; called once before round 0.
  virtual void initialize(std::span<const float> global_state) = 0;

  // A new client with the given id joined mid-run (paper §V dynamicity).
  // Protocols with per-client state extend their bookkeeping here.
  virtual void on_client_join(int client_id) { (void)client_id; }

  // Extra bytes a late-joining client must download beyond the model itself
  // (e.g. FedSU's predictability mask + no-check periods, §V dynamicity).
  virtual std::size_t join_state_bytes() const { return 0; }

  // A previously-known client reappeared after an absence (crash/rejoin
  // churn, DESIGN.md §10). Its local replica is stale: the server forces a
  // full re-sync, and protocols with per-client speculation state must
  // invalidate it here — a rejoiner must never speculate from a stale slope
  // or contribute a partially-observed error accumulator (docs/
  // FAULT_MODEL.md). Returns the extra bytes the rejoiner re-downloads
  // beyond the model itself. Default: no per-client state, nothing to do.
  virtual std::size_t on_client_rejoin(int client_id) {
    (void)client_id;
    return 0;
  }

  // Checkpoint/restart. serialize() appends the protocol's cross-round
  // state to `writer` — all of it: a protocol resumed from those bytes and
  // the matching global model continues bitwise like the uninterrupted one.
  // deserialize() reads them back from a reader that holds exactly them,
  // and throws unless it ends at the reader's end. Protocols without
  // cross-round state write nothing and accept only an empty reader. A
  // deserialize() that throws leaves the protocol unchanged.
  virtual void serialize(io::BinaryWriter& writer) const { (void)writer; }
  virtual void deserialize(io::BinaryReader& reader);

  // The same state as a standalone byte vector, and back (tests, tools).
  std::vector<std::uint8_t> snapshot() const;
  void restore(const std::vector<std::uint8_t>& bytes);

  // Fraction of model scalars NOT uploaded, averaged over participants, for
  // the most recent round (the paper's "sparsification ratio").
  virtual double last_sparsification_ratio() const { return 0.0; }

  // Structured per-round telemetry for the observability layer (src/obs).
  // Protocols without speculation report the zero defaults.
  struct Telemetry {
    // Share of model scalars updated speculatively / without transmission
    // this round (FedSU: predictable fraction; APF: frozen fraction).
    double speculated_fraction = 0.0;
    // Speculation phases force-ended this round because the error-feedback
    // check failed — each one costs a fallback synchronization.
    std::size_t fallback_syncs = 0;
    // Parameters whose linearity diagnosis started a speculation phase
    // this round (FedSU's promotions).
    std::size_t promotions = 0;
  };
  virtual Telemetry last_round_telemetry() const { return {}; }
};

// The input contract of synchronize(), checked once for every protocol: at
// least one participant, distinct participant ids, one state per
// participant, and every state `params` long. With `reads_global`,
// ctx.global must be `params` long too. Throws std::invalid_argument naming
// `who`.
void check_sync_inputs(const std::string& who, const RoundContext& ctx,
                       const std::vector<std::span<const float>>& client_states,
                       std::size_t params, bool reads_global);

// Dense mean of the participants' states (the FedAvg aggregation rule);
// shared by several protocols.
std::vector<float> average_states(
    const std::vector<std::span<const float>>& client_states);

}  // namespace fedsu::compress

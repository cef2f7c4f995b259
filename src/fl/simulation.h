// End-to-end FL simulation: dataset generation, Dirichlet partitioning,
// round loop with earliest-70 % participation, protocol-driven
// synchronization, and the simulated-time cost model (DESIGN.md §2).
// Dataset synthesis, participant training and test evaluation run across a
// thread pool (SimulationOptions::threads) with bitwise-identical results
// for every thread count: workers pull clients and test sub-batches onto
// per-worker replicas, and aggregation consumes the states in deterministic
// participant order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compress/protocol.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/faults.h"
#include "net/async_queue.h"
#include "net/network_model.h"
#include "nn/zoo.h"
#include "util/thread_pool.h"

namespace fedsu::fl {

// How per-round simulated time is computed.
enum class TimingModel {
  kCoarse,     // per-client: compute + bytes / (capacity shared evenly)
  kFlowLevel,  // two-phase max-min-fair flow simulation (net/round_timeline)
};

// FedBuff-style buffered-asynchronous execution (DESIGN.md §11): the server
// aggregates as soon as the first `buffer_k` uploads arrive on the simulated
// clock, weighting each update by 1/(1+staleness)^alpha where staleness is
// the number of aggregations since the update's model version was
// dispatched. Slow clients keep training against the version they were
// handed instead of being re-selected; the synchronous barrier disappears.
struct AsyncOptions {
  bool enabled = false;
  // Uploads buffered before the server aggregates. 0 (the default) means
  // half the cohort, rounded up to 1. A value >= the cohort with zero fault
  // rates is structurally a barrier and runs the exact synchronous path
  // (bitwise-identical byte stream, see DESIGN.md §11).
  int buffer_k = 0;
  // Staleness discount exponent alpha. 0 = unweighted buffering: every
  // update's delta is applied at full weight regardless of age.
  double staleness_alpha = 0.5;
};

// The staleness discount w = 1/(1+s)^alpha. s <= 0 or alpha == 0 gives
// exactly 1.0. Exposed for tests and doc examples.
double staleness_weight(int staleness, double alpha);

// The sub-batches Simulation::evaluate scores, as [begin, end) row ranges
// in order: each 64-sample block of the test set cut into pieces of
// clamp(batch_size, 4, 64) rows, a remainder under 4 rows joined to the
// piece before it, and a block under 4 rows left whole. Exposed for tests.
std::vector<std::pair<std::size_t, std::size_t>> eval_sub_batches(
    std::size_t test_size, int batch_size);

// Periodic run checkpointing (docs/RECOVERY.md): every `every` completed
// rounds the simulation serializes its full resume frontier
// (Simulation::snapshot_state) and writes it atomically to
// `dir/ckpt-<round>.fedsu` (io::save_run_checkpoint). A later process
// restores it with Simulation::restore_state and replays the remaining
// rounds bitwise-identically to the uninterrupted run.
struct CheckpointOptions {
  int every = 0;    // cadence in completed rounds; 0 disables
  std::string dir;  // checkpoint directory (created on first write)
  // Retention: after each successful write, delete the oldest checkpoints
  // in `dir` until at most `keep` remain (io::prune_run_checkpoints).
  // 0 keeps everything — the historical behaviour.
  int keep = 0;
};

// Thrown by Simulation::step() when the server-crash fault family
// (FaultOptions::server_crash_*, docs/FAULT_MODEL.md §7) kills the server at
// the start of a round/cycle. The simulation object is left exactly as the
// previous round ended — harnesses typically exit the process here and a
// later invocation resumes from the last checkpoint.
class ServerCrashed : public std::runtime_error {
 public:
  explicit ServerCrashed(int round)
      : std::runtime_error("server crashed at the start of round " +
                           std::to_string(round)),
        round_(round) {}
  int round() const { return round_; }

 private:
  int round_;
};

struct SimulationOptions {
  nn::ModelSpec model;
  data::SyntheticSpec dataset;
  int num_clients = 8;
  double dirichlet_alpha = 1.0;  // paper §VI-A uses alpha = 1
  LocalTrainOptions local;
  // Fraction of clients whose updates the server uses each round — the
  // earliest finishers (paper: 70 %).
  double participation_fraction = 0.7;
  net::NetworkOptions network;
  TimingModel timing = TimingModel::kCoarse;
  // Deterministic fault injection & churn (fl/faults, DESIGN.md §10,
  // docs/FAULT_MODEL.md). All rates zero (the default) disables the plan:
  // it never resolves a round and answers every client with the neutral
  // ClientFault{}, so results are bitwise identical to a build without it.
  FaultOptions faults;
  // Buffered-async execution. When enabled, `participation_fraction` is
  // ignored (every active client is always either training or uploading),
  // and `timing` is forced to kFlowLevel — overlapping uploads only exist
  // in the flow-level model.
  AsyncOptions async;
  // Periodic crash-recovery checkpoints (docs/RECOVERY.md). Writing a
  // checkpoint only reads state, so enabling it cannot perturb results.
  CheckpointOptions checkpoint;
  int eval_every = 1;       // test-set evaluation period, in rounds
  std::uint64_t seed = 42;
  // Worker threads for dataset synthesis, the round's local training (each
  // participant trains on a per-worker model replica) and test evaluation.
  // 0 = hardware concurrency; 1 runs everything on the calling thread.
  // Results are bitwise identical for every value — see DESIGN.md
  // §"Determinism under parallelism".
  int threads = 0;
};

struct RoundRecord {
  int round = 0;
  int uploads_lost = 0;  // lost after every retry (FaultOptions)
  double round_time_s = 0.0;     // simulated duration of this round
  double elapsed_time_s = 0.0;   // cumulative simulated time
  double train_loss = 0.0;       // mean over participants
  std::optional<float> test_accuracy;  // present on eval rounds
  double sparsification_ratio = 0.0;   // protocol-reported
  std::size_t bytes_up = 0;            // summed over participants
  std::size_t bytes_down = 0;
  int num_participants = 0;

  // Protocol-reported speculation telemetry (compress::SyncProtocol::
  // last_round_telemetry): zero for non-speculative schemes.
  double speculated_fraction = 0.0;
  int fallback_syncs = 0;
  int promotions = 0;  // parameters that entered speculation (FedSU only)

  // Per-round fault tallies, engaged only when fault injection is on (the
  // optional stays empty otherwise, keeping zero-rate records bit-identical
  // to pre-fault-layer output). Invariant when present:
  //   selected == num_participants + uploads_lost + corrupt
  //              + deadline_missed + unused.
  struct FaultCounters {
    int selected = 0;         // clients the server started this round
    int crashed = 0;          // population currently absent (crashed)
    int onsets = 0;           // crashes that started this round
    int rejoined = 0;         // clients back from an absence this round
    int resyncs = 0;          // forced protocol state re-syncs on rejoin
    int stragglers = 0;       // slowed-down clients among the selected
    int retries = 0;          // extra upload attempts among the selected
    int corrupt = 0;          // uploads discarded on CRC mismatch
    int deadline_missed = 0;  // uploads dropped for landing past deadline
    int unused = 0;           // delivered but beyond the aggregation target
    bool quorum_met = true;   // false: round stalled below min_quorum
  };
  std::optional<FaultCounters> faults;

  // Per-cycle buffered-async telemetry, engaged only when the async engine
  // ran the cycle (the optional stays empty on the synchronous path and in
  // barrier-degenerate async runs, which ARE the synchronous path).
  // In async mode one RoundRecord describes one aggregation cycle, and the
  // fault reconciliation invariant becomes cumulative: over a run,
  //   sum(selected) == sum(num_participants) + sum(uploads_lost)
  //                  + sum(corrupt) + sum(deadline_missed)
  //                  + inflight-at-end
  // because a cycle may consume uploads dispatched cycles earlier.
  struct AsyncStats {
    int buffer_k = 0;          // effective K after clamping to the cohort
    int consumed = 0;          // uploads aggregated this cycle
    int inflight = 0;          // uploads still traveling when the cycle ended
    double fill_time_s = 0.0;  // cycle start -> K-th arrival (sim. seconds)
    int max_staleness = 0;     // version lag, in aggregations
    double mean_staleness = 0.0;
    double weight_sum = 0.0;   // sum of staleness weights over consumed
    // staleness_hist[s] = consumed uploads that were s versions stale;
    // sums to `consumed`.
    std::vector<int> staleness_hist;
  };
  std::optional<AsyncStats> async;

  // Outcome of the periodic run-checkpoint write, present only on rounds
  // where SimulationOptions::checkpoint scheduled one (the optional stays
  // empty otherwise, keeping checkpoint-off records bit-identical to
  // pre-recovery output). A failed write sets ok = false with a diagnostic;
  // the run continues — the health monitor raises a critical alert instead.
  struct CheckpointEvent {
    bool ok = false;
    int round = 0;          // rounds completed in the snapshot
    std::size_t bytes = 0;  // payload size (the file adds a 16-byte frame)
    std::string path;       // final file path; "" on failure
    std::string error;      // diagnostic on failure
  };
  std::optional<CheckpointEvent> checkpoint;

  // Host wall-clock time of each phase of step(): the durations of the
  // round's sim.* spans at obs level metrics or trace (all zero at off).
  // They never feed back into the simulated clock, so recording them
  // cannot perturb results.
  struct WallPhases {
    double select_s = 0.0;  // sim.select: open_round, selection, delivery cut
    double train_s = 0.0;   // sim.train: local training across the pool
    double sync_s = 0.0;    // sim.sync: views (async: re-base) + protocol
    double timing_s = 0.0;  // sim.timing: flows, settle, round-time model
    double eval_s = 0.0;    // sim.eval: test-set evaluation (eval rounds)
    double total_s = 0.0;   // sim.round: whole step(); phases + close_round
  };
  WallPhases wall;
};

class Simulation {
 public:
  // The protocol object defines the synchronization scheme under test.
  Simulation(SimulationOptions options,
             std::unique_ptr<compress::SyncProtocol> protocol);

  // Runs one round; returns its record.
  RoundRecord step();

  // Runs `rounds` rounds, collecting records.
  std::vector<RoundRecord> run(int rounds);

  // Test accuracy of the current global model: 64-sample blocks, each
  // scored in sub-batches of the training batch size across the pool.
  float evaluate() const;

  const std::vector<float>& global_state() const { return global_; }
  compress::SyncProtocol& protocol() { return *protocol_; }
  const FaultPlan& fault_plan() const { return faults_; }
  int rounds_completed() const { return round_; }
  double elapsed_time_s() const { return elapsed_time_s_; }
  std::size_t model_state_size() const { return global_.size(); }
  double model_flops_per_round() const;

  // Called after each round, before the record is returned; used by benches
  // to snoop trajectories without re-running.
  void set_round_hook(std::function<void(const RoundRecord&)> hook) {
    round_hook_ = std::move(hook);
  }

  // Dynamicity (paper §V): adds a fresh client mid-run with the given shard
  // of extra data; it downloads model + protocol join state. Returns its id
  // and the join payload bytes.
  std::pair<int, std::size_t> add_client(data::Dataset shard);

  // Removes a client from future participation (simulated dropout).
  void drop_client(int client_id);

  // Serializes the full resume frontier (docs/RECOVERY.md): model, protocol
  // snapshot (FedSU promotion/demotion state, SparseErrorStore slabs, rejoin
  // stamps), per-client batch-loader RNG/permutation cursors, fault-plan
  // churn state, and — in async mode — the version fence plus every
  // in-flight dispatch leg, so restore does not require a quiescent server.
  // Everything else (shards, network model, selection RNGs) re-derives from
  // SimulationOptions deterministically and is validated, not stored.
  std::vector<std::uint8_t> snapshot_state() const;

  // Restores a snapshot_state() payload onto a Simulation constructed with
  // the SAME options (protocol, cohort, model, seed — `threads` may differ;
  // §5b holds across thread counts). Replaying the remaining rounds then
  // produces output bitwise identical to the uninterrupted run. This is the
  // one resume path: the model and the protocol's state only ever restore
  // together. Throws on any mismatch (different protocol, cohort size,
  // model size, or sync/async mode) and on malformed payloads; either way
  // the simulation is left exactly as it was (all-or-nothing). Mid-run
  // add_client joiners are outside the resume frontier: restore onto the
  // constructed cohort, then re-add them.
  void restore_state(const std::vector<std::uint8_t>& payload);

 private:
  // One upload leg in flight between dispatch and consumption (async mode).
  struct InFlight {
    int client = 0;
    int version = 0;         // model_version_ at dispatch
    int dispatch_cycle = 0;  // round_ at dispatch (whose faults it carries)
    double dispatch_s = 0.0; // absolute simulated dispatch time
    std::size_t flow = 0;    // AsyncUplink flow id
    int attempts = 1;
    double comm_factor = 1.0;
    bool delivered = true;
    bool corrupt = false;
    double loss = 0.0;
    std::vector<float> state;  // trained local state (awaiting arrival)
    // The global the client trained against; shared by every leg dispatched
    // off the same version so stale deltas can be re-based onto the current
    // model at consumption time.
    std::shared_ptr<const std::vector<float>> dispatch_global;
  };

  // The two round engines: a synchronous barrier round and a buffered-async
  // aggregation cycle (DESIGN.md §11). They differ only in their delivery
  // rule — the barrier cut marks late uploads unused, the async buffer
  // keeps them in flight; every other stage is a shared helper below.
  RoundRecord step_sync();
  RoundRecord step_async();
  // Writes the periodic run checkpoint when the cadence says so, attaching
  // the outcome to `record` (before the round hook sees it).
  void maybe_checkpoint(RoundRecord& record);

  // Resolves `round`'s faults and returns the clients that can start work:
  // active, not crashed, and not mid-upload. Each rejoiner among them is
  // billed its forced re-sync, tallied in `fc` and `resync_bytes`.
  std::vector<int> open_round(int round, RoundRecord::FaultCounters& fc,
                              std::size_t& resync_bytes);
  std::vector<int> select_participants(int round,
                                       const std::vector<int>& present);
  // Trains every participant (reading global_, sizing and filling
  // states/losses by participant position) — across the pool when it pays,
  // else sequentially — inside the sim.train span, which adds its duration
  // to *seconds.
  void train_participants(const std::vector<int>& participants,
                          std::vector<std::vector<float>>& states,
                          std::vector<double>& losses, double* seconds);
  // One model replica per pool worker, built on first use.
  std::vector<std::unique_ptr<nn::Model>>& replicas() const;
  // Runs the protocol under test on the current global (which it sets as
  // ctx.global) and installs the new one.
  compress::SyncResult synchronize(
      compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& views);
  // Ends the round `record` describes — aggregated (num_participants > 0)
  // or stalled — once its engine has set the clock: attaches protocol
  // telemetry (aggregated rounds only), re-sync bytes and fault tallies,
  // and evaluates.
  RoundRecord close_round(RoundRecord record, RoundRecord::FaultCounters fc,
                          std::size_t resync_bytes);

  SimulationOptions options_;
  std::unique_ptr<compress::SyncProtocol> protocol_;
  // The training data exists exactly once: every client holds a
  // DatasetView (row indices) into this shared dataset instead of a copy
  // (DESIGN.md §13). Declared before clients_ so views outlive their users
  // even mid-destruction.
  std::shared_ptr<const data::Dataset> train_data_;
  data::Dataset test_data_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<bool> active_;
  mutable nn::Model scratch_model_;
  // Worker pool plus one model replica per worker; both null/empty when
  // options_.threads resolves to 1. The pool also synthesizes the dataset.
  // Replicas train clients and score the test set; they are built lazily
  // (replicas()) from the same spec+seed as scratch_model_, so a replica
  // that loaded global_ is bit-identical to the scratch model.
  std::unique_ptr<util::ThreadPool> pool_;
  mutable std::vector<std::unique_ptr<nn::Model>> replicas_;
  net::NetworkModel network_;
  FaultPlan faults_;
  // Aggregation target of the latest selection (before over-selection).
  std::size_t select_target_ = 0;
  std::vector<float> global_;
  int round_ = 0;
  double elapsed_time_s_ = 0.0;
  double last_mean_payload_bytes_ = 0.0;  // for finish-time estimation
  std::function<void(const RoundRecord&)> round_hook_;

  // --- buffered-async state (idle on the synchronous path) ---
  // True when step() runs async cycles: async is on and K is not
  // structurally a barrier (K >= cohort without faults routes to
  // step_sync() and is the synchronous path).
  bool async_engine_ = false;
  int model_version_ = 0;  // aggregations completed (== protocol rounds_seen)
  std::unique_ptr<net::AsyncUplink> uplink_;
  std::vector<InFlight> inflight_;
  std::vector<char> client_busy_;       // has an upload leg in flight
  std::vector<double> client_ready_s_;  // absolute next-dispatch time

};

}  // namespace fedsu::fl

// Deterministic fault injection & churn for the FL simulator (DESIGN.md §10,
// docs/FAULT_MODEL.md).
//
// A FaultPlan turns FaultOptions + a seed (or an explicit CSV trace) into
// per-(round, client) events: crash/rejoin churn, compute/bandwidth
// stragglers, upload loss with bounded retry/backoff, and payload corruption.
// Every realization is drawn from a generator keyed on (seed, round, client),
// so the schedule is bitwise identical for any `--threads` value and any
// call-site ordering — the §5b determinism contract extends to faults.
//
// A default-constructed (or all-zero-rate, trace-less) plan reports
// enabled() == false and answers every client with the neutral
// ClientFault{}, whose unit factors leave the simulator's results bitwise
// identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fedsu::fl {

struct FaultOptions {
  // Crash/rejoin churn: each round an up client crashes with this
  // probability and stays absent for a uniform number of rounds in
  // [1, crash_rounds_max]. On return it is stale: the server forces a
  // re-sync (model + protocol speculation state) before it may participate
  // again.
  double crash_probability = 0.0;
  int crash_rounds_max = 3;
  // Stragglers: with this probability a client's round runs slower by the
  // given multipliers (>= 1; compute and communication independently), so
  // the earliest-70% participation cut reshuffles.
  double straggler_probability = 0.0;
  double straggler_compute_factor = 4.0;
  double straggler_comm_factor = 4.0;
  // Upload loss: each upload attempt is lost with this probability; the
  // client retries up to max_retries times, waiting retry_backoff_s of
  // simulated time between attempts. With max_retries = 0 a lost attempt
  // loses the upload for the round.
  double upload_loss_probability = 0.0;
  int max_retries = 0;
  double retry_backoff_s = 0.5;
  // Payload corruption: a delivered upload arrives bit-flipped with this
  // probability. The CRC-32 on its wire encoding (compress/wire) detects
  // every single-bit flip, so the server counts it corrupt and discards the
  // update.
  double corruption_probability = 0.0;
  // Server collection policy. deadline_s > 0: uploads estimated to land
  // after the deadline are dropped (the server stops waiting). Over-
  // selection starts extra clients beyond the participation target so
  // losses/stragglers can be backfilled. min_quorum: fewer surviving
  // uploads than this stalls the round (time passes, state stays).
  double deadline_s = 0.0;
  double over_select_fraction = 0.0;
  int min_quorum = 1;
  // Server-side fault family (docs/FAULT_MODEL.md §7): the *server* dies at
  // the start of round/cycle k. A crash terminates the run (the process
  // exits; recovery is resuming from the last checkpoint — docs/RECOVERY.md),
  // so unlike client faults there is no per-round state machine: the event
  // is a pure function of (seed, round). server_crash_at pins a single
  // deterministic crash round (< 0 disables); server_crash_probability
  // draws per round from a stream keyed on (seed, round) — the same
  // stateless keying as the client families, salted so the server stream
  // never collides with any client's. These knobs deliberately do NOT flip
  // enabled(): they engage no client-fault machinery and leave the
  // telemetry/record format untouched.
  int server_crash_at = -1;
  double server_crash_probability = 0.0;
  std::uint64_t seed = 0x5eedfa17ULL;
  // Optional CSV trace of explicit events, applied on top of (and taking
  // precedence over) the probabilistic draws. Format, one event per line:
  //   round,client,event,value
  // with event in {crash, straggle-compute, straggle-comm, lose-upload,
  // corrupt, server-crash}. Values: crash = rounds absent; straggle-* =
  // time multiplier; lose-upload = attempts needed to deliver (0 or >
  // max_retries + 1 means never delivered); corrupt and server-crash ignore
  // the value (server-crash also ignores the client column). Lines starting
  // with '#' and a leading "round,client,..." header are skipped.
  std::string trace_csv;
};

// Everything that befalls one client in one round.
struct ClientFault {
  bool absent = false;    // crashed: does not train, cannot be selected
  bool rejoined = false;  // first round back after an absence (stale state)
  bool straggler = false;
  double compute_factor = 1.0;  // >= 1 multiplies compute time
  double comm_factor = 1.0;     // >= 1 multiplies transfer time
  int upload_attempts = 1;      // attempts actually made this round
  bool delivered = true;        // false: lost even after all retries
  bool corrupt = false;         // delivered, but fails the CRC check
};

class FaultPlan {
 public:
  FaultPlan() = default;  // disabled: enabled() == false
  explicit FaultPlan(FaultOptions options);

  bool enabled() const { return enabled_; }
  const FaultOptions& options() const { return options_; }

  // True when any server-crash source is configured (fixed round,
  // probability, or a trace event). Kept separate from enabled(): server
  // faults engage none of the client-fault branches.
  bool server_faults_enabled() const { return server_faults_enabled_; }

  // Does the server die at the start of `round`? Pure function of
  // (seed, round) — stateless, so it may be queried any number of times
  // (including after a resume) and always answers the same.
  bool server_crash(int round) const;

  // Resolves every fault for `round` across clients [0, num_clients).
  // Call once per round from the (sequential) round loop with
  // non-decreasing rounds: the crash state machine advances here. All
  // per-client draws come from (seed, round, client)-keyed streams, so the
  // realization is independent of threading.
  void begin_round(int round, int num_clients);

  // A disabled plan never resolves a round: it answers every client with
  // the neutral ClientFault{} (unit factors, one delivered attempt).
  const ClientFault& fault(int client) const {
    static constexpr ClientFault kNeutral{};
    return enabled_ ? current_[static_cast<std::size_t>(client)] : kNeutral;
  }
  bool is_absent(int client) const { return fault(client).absent; }

  // Population-level tallies for the round begin_round() last resolved.
  struct RoundSummary {
    int onsets = 0;      // crashes that started this round
    int absent = 0;      // clients down this round (incl. earlier onsets)
    int rejoined = 0;    // clients back from an absence this round
    int stragglers = 0;
  };
  const RoundSummary& round_summary() const { return summary_; }

  // Checkpoint support: the crash/rejoin state machine (`down_until_`) is
  // the plan's only cross-round state. Everything else is re-derived from
  // (seed, round, client) keys, so snapshotting these ints is sufficient to
  // resume the fault schedule byte-exactly mid-run.
  const std::vector<int>& churn_state() const { return down_until_; }
  void restore_churn_state(std::vector<int> down_until) {
    down_until_ = std::move(down_until);
  }

 private:
  FaultOptions options_;
  bool enabled_ = false;
  bool server_faults_enabled_ = false;
  std::vector<ClientFault> current_;
  // down_until_[c] > round means client c is absent in `round`; a client
  // whose down_until_ equals the current round rejoins in it.
  std::vector<int> down_until_;
  RoundSummary summary_;

  struct TraceEvent {
    int client = 0;
    enum class Kind { kCrash, kStraggleCompute, kStraggleComm, kLoseUpload,
                      kCorrupt, kServerCrash } kind = Kind::kCrash;
    double value = 0.0;
  };
  std::unordered_map<int, std::vector<TraceEvent>> trace_;  // keyed by round
};

}  // namespace fedsu::fl

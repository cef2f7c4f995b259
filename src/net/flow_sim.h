// Flow-level network simulation with max-min fair sharing.
//
// Models one bottleneck link (the FL server's access link) shared by many
// client flows, each additionally capped by its own access rate — the
// classic water-filling allocation, advanced event-by-event (a flow
// arriving or completing changes the allocation; rates are constant in
// between). This is the exact fluid model of TCP-fair sharing and upgrades
// the coarse "capacity / concurrent" approximation of NetworkModel: with
// staggered arrivals, early flows get more than 1/N of the bottleneck, so
// the earliest-70% participation cut (paper §VI-A) lands differently.
//
// There is one event loop, `SharedLink`. It is resumable: flows can be
// appended after a run, and the next run restarts from a checkpointed event
// boundary instead of t = 0 (net::AsyncUplink builds on this).
// `simulate_shared_link` is the one-shot wrapper: one from-empty run.
#pragma once

#include <cstddef>
#include <vector>

namespace fedsu::net {

struct Flow {
  double start_time_s = 0.0;  // when the flow becomes active
  double bytes = 0.0;         // payload to move
  double rate_cap_bps = 0.0;  // client access-link rate (bits/s), > 0
};

struct FlowResult {
  double finish_time_s = 0.0;  // absolute completion time
};

// True when `flow` can be simulated: finite start >= 0, finite bytes >= 0,
// and a positive rate cap. NaN fails every test.
bool valid_flow(const Flow& flow);

// The resumable shared-link engine. A flow's index is its insertion order.
// `run` advances the event loop until every flow has finished. Between
// events the active set and its rates are constant; each event:
//   * hands the active (started, unfinished) flows to the water-filling in
//     ascending index order,
//   * advances by the earliest completion at current rates, cut short by
//     the next arrival (`next_arrival - now < dt`),
//   * drains `bits_left -= rate * dt`, finishing flows at <= 1e-9 bits,
//   * and jumps idle time straight to the next arrival.
// The working set holds only unfinished flows, in ascending index, and all
// buffers are reused across events and runs.
//
// Resuming. Each run records a checkpoint: the state at its last event
// boundary whose clock is strictly below `checkpoint_before_s`, or the
// empty t = 0 state when there is none. The next run starts from that
// checkpoint with the flows added since. The caller guarantees every such
// flow starts at or after the `checkpoint_before_s` of the run that set the
// checkpoint. Then no epoch ending before that bound can change (a later
// arrival cannot cut it short), and the resumed run is bitwise identical to
// a from-empty run over all flows. The epoch ending exactly at a new
// flow's start may be cut one ulp differently, which is why the boundary
// must lie strictly below.
class SharedLink {
 public:
  // Throws std::invalid_argument for a non-positive bottleneck.
  explicit SharedLink(double bottleneck_bps);

  // Appends a flow and returns its index. Throws std::invalid_argument
  // unless valid_flow(flow).
  std::size_t add(const Flow& flow);

  // Runs until every flow has finished, updating finish_s(). Throws
  // std::logic_error if the simulation stalls.
  void run(double checkpoint_before_s);

  // Completion time of flow `index` as of the last run; a zero-byte flow
  // finishes at its start.
  double finish_s(std::size_t index) const { return finish_s_[index]; }
  const std::vector<Flow>& flows() const { return flows_; }
  std::size_t size() const { return flows_.size(); }

 private:
  struct Live {
    std::size_t index = 0;
    double bits_left = 0.0;
  };
  void save_checkpoint(double now);

  double bottleneck_bps_;
  std::vector<Flow> flows_;
  std::vector<double> finish_s_;

  // Resume point: clock, unfinished flows, and how many flows existed.
  double checkpoint_now_ = 0.0;
  std::vector<Live> checkpoint_live_;
  std::size_t checkpoint_flows_ = 0;

  // Per-event scratch.
  std::vector<Live> live_;
  std::vector<std::size_t> active_;  // positions in live_
  std::vector<double> caps_;
  std::vector<double> rates_;
  std::vector<std::size_t> unfrozen_;
};

// Simulates the given flows over a shared bottleneck of
// `bottleneck_bps` (bits/s): one from-empty SharedLink run. Zero-byte
// flows finish at their start time. Throws std::invalid_argument for
// non-positive capacities or invalid flows.
std::vector<FlowResult> simulate_shared_link(const std::vector<Flow>& flows,
                                             double bottleneck_bps);

// Max-min fair ("water-filling") instantaneous allocation: divides
// `capacity` over `caps` so no flow exceeds its cap and unused share is
// redistributed. Exposed for tests. Returns per-flow rates.
std::vector<double> max_min_fair_rates(const std::vector<double>& caps,
                                       double capacity);

}  // namespace fedsu::net

// Per-upload completion ordering for the buffered-async round engine
// (DESIGN.md §11).
//
// The synchronous path simulates one round's uploads in isolation
// (net/round_timeline); under buffered-async execution uploads from many
// dispatch cycles overlap on the server's ingress link, so completion times
// depend on the *whole* contention history. AsyncUplink keeps every upload
// flow ever dispatched (absolute start times) in one resumable
// net::SharedLink and answers completion times under that full history.
//
// Why resuming is exact: flows are only ever appended, and every new flow
// starts at or after the current start-time *floor* (the engine's cycle
// start: a leg dispatches at max(cycle start, client ready time) and
// uploads after computing). SharedLink integrates epochs in absolute time
// and visits flows in index order, so no event boundary strictly before the
// floor can move when such a flow is added — consumed arrivals never move —
// while flows still in progress legitimately pick up the new contention.
// Each re-simulation therefore resumes from the last boundary strictly
// below the floor, and its cost scales with the flows in flight, not with
// the run's length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/flow_sim.h"

namespace fedsu::net {

// Seed-keyed tiebreak for simultaneous arrivals: hashes (client, version)
// through the run seed so equal-time arrivals are consumed in an order that
// is reproducible for any thread count yet not systematically biased toward
// low client ids (the id itself is only the final tiebreak; §5b).
std::uint64_t arrival_tiebreak(std::uint64_t seed, int client, int version);

class AsyncUplink {
 public:
  // `server_bps` is the shared ingress capacity every upload contends for.
  explicit AsyncUplink(double server_bps);

  // Raises the start-time floor: flows added from now on must start at or
  // after `floor_s`. Throws std::invalid_argument if the floor would drop.
  void raise_floor(double floor_s);

  // Registers an upload flow; returns its stable id. `start_s` is absolute
  // simulated time (compute finish + any retry backoff). Throws
  // std::invalid_argument for a start below the floor or an invalid flow
  // (net::valid_flow).
  std::size_t add(double start_s, double bytes, double rate_cap_bps);

  // Completion time of `flow` under the full contention history, resuming
  // the simulation if any flow was added since the last call.
  double completion_s(std::size_t flow);

  std::size_t size() const { return link_.size(); }

  // Checkpoint support: the flow history IS the uplink's state — completion
  // times and the resume point are a cache. Restoring drops them (and the
  // floor) and the next completion_s() replays once from t = 0, which gives
  // bitwise the completion times the live uplink had.
  const std::vector<Flow>& flows() const { return link_.flows(); }
  void restore_flows(const std::vector<Flow>& flows);

 private:
  double server_bps_;
  SharedLink link_;
  double floor_s_ = 0.0;
  bool dirty_ = false;
};

}  // namespace fedsu::net

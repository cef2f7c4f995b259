#include "net/async_queue.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace fedsu::net {

std::uint64_t arrival_tiebreak(std::uint64_t seed, int client, int version) {
  // splitmix64-style finalizer over the three keys; any bijective mixer
  // works, it only has to be stable and seed-dependent.
  std::uint64_t x = seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(client) + 1)) ^
                    (0xbf58476d1ce4e5b9ULL *
                     (static_cast<std::uint64_t>(version) + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

AsyncUplink::AsyncUplink(double server_bps)
    : server_bps_(server_bps), link_(server_bps) {}

void AsyncUplink::raise_floor(double floor_s) {
  if (!(floor_s >= floor_s_)) {
    throw std::invalid_argument("AsyncUplink: the start-time floor dropped");
  }
  floor_s_ = floor_s;
}

std::size_t AsyncUplink::add(double start_s, double bytes,
                             double rate_cap_bps) {
  if (start_s < floor_s_) {
    throw std::invalid_argument("AsyncUplink: flow starts below the floor");
  }
  const std::size_t id = link_.add(Flow{start_s, bytes, rate_cap_bps});
  dirty_ = true;
  return id;
}

double AsyncUplink::completion_s(std::size_t flow) {
  if (flow >= link_.size()) {
    throw std::out_of_range("AsyncUplink: bad flow id");
  }
  if (dirty_) {
    OBS_SPAN("net.async_uplink");
    link_.run(floor_s_);
    dirty_ = false;
  }
  return link_.finish_s(flow);
}

void AsyncUplink::restore_flows(const std::vector<Flow>& flows) {
  SharedLink link(server_bps_);
  for (const Flow& flow : flows) link.add(flow);
  link_ = std::move(link);
  floor_s_ = 0.0;
  dirty_ = link_.size() > 0;
}

}  // namespace fedsu::net

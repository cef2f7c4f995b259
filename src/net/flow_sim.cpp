#include "net/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fedsu::net {

namespace {

// Water-filling into caller-owned buffers: repeatedly grant the fair
// share; flows whose cap is below it are frozen at their cap and their
// leftover redistributes. `caps` must be positive and `capacity` > 0.
void water_fill(const std::vector<double>& caps, double capacity,
                std::vector<double>& rates,
                std::vector<std::size_t>& unfrozen) {
  const std::size_t n = caps.size();
  rates.assign(n, 0.0);
  unfrozen.resize(n);
  for (std::size_t i = 0; i < n; ++i) unfrozen[i] = i;
  double remaining = capacity;
  while (!unfrozen.empty()) {
    const double fair = remaining / static_cast<double>(unfrozen.size());
    // Freeze all capped flows this pass.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < unfrozen.size(); ++j) {
      const std::size_t i = unfrozen[j];
      if (caps[i] <= fair) {
        rates[i] = caps[i];
        remaining -= caps[i];
      } else {
        unfrozen[kept++] = i;
      }
    }
    if (kept == unfrozen.size()) {
      for (std::size_t i : unfrozen) rates[i] = fair;
      break;
    }
    unfrozen.resize(kept);
  }
}

}  // namespace

bool valid_flow(const Flow& flow) {
  return std::isfinite(flow.start_time_s) && flow.start_time_s >= 0.0 &&
         std::isfinite(flow.bytes) && flow.bytes >= 0.0 &&
         flow.rate_cap_bps > 0.0;
}

std::vector<double> max_min_fair_rates(const std::vector<double>& caps,
                                       double capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument("max_min_fair_rates: capacity <= 0");
  }
  for (double c : caps) {
    if (c <= 0.0) throw std::invalid_argument("max_min_fair_rates: cap <= 0");
  }
  std::vector<double> rates;
  std::vector<std::size_t> unfrozen;
  water_fill(caps, capacity, rates, unfrozen);
  return rates;
}

SharedLink::SharedLink(double bottleneck_bps)
    : bottleneck_bps_(bottleneck_bps) {
  if (!(bottleneck_bps > 0.0)) {
    throw std::invalid_argument("SharedLink: bottleneck <= 0");
  }
}

std::size_t SharedLink::add(const Flow& flow) {
  if (!valid_flow(flow)) throw std::invalid_argument("SharedLink: bad flow");
  flows_.push_back(flow);
  finish_s_.push_back(flow.start_time_s);  // final for a zero-byte flow
  return flows_.size() - 1;
}

void SharedLink::save_checkpoint(double now) {
  checkpoint_now_ = now;
  checkpoint_live_.assign(live_.begin(), live_.end());
  checkpoint_flows_ = flows_.size();
}

void SharedLink::run(double checkpoint_before_s) {
  double now = checkpoint_now_;
  live_.assign(checkpoint_live_.begin(), checkpoint_live_.end());
  for (std::size_t i = checkpoint_flows_; i < flows_.size(); ++i) {
    const double bits = flows_[i].bytes * 8.0;
    if (bits != 0.0) live_.push_back(Live{i, bits});
  }

  // Event loop: between events the active set and its rates are constant.
  for (;;) {
    if (now < checkpoint_before_s) save_checkpoint(now);
    if (live_.empty()) break;

    // Active flows: started and unfinished.
    active_.clear();
    caps_.clear();
    double next_arrival = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < live_.size(); ++j) {
      const Flow& flow = flows_[live_[j].index];
      if (flow.start_time_s <= now) {
        active_.push_back(j);
        caps_.push_back(flow.rate_cap_bps);
      } else {
        next_arrival = std::min(next_arrival, flow.start_time_s);
      }
    }
    if (active_.empty()) {
      // Idle until the next arrival.
      now = next_arrival;
      continue;
    }
    water_fill(caps_, bottleneck_bps_, rates_, unfrozen_);

    // Time until the first active flow completes at current rates.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < active_.size(); ++k) {
      if (rates_[k] > 0.0) {
        dt = std::min(dt, live_[active_[k]].bits_left / rates_[k]);
      }
    }
    // ... or until a new flow arrives and reshapes the allocation.
    if (next_arrival - now < dt) dt = next_arrival - now;
    if (!(dt > 0.0) || !std::isfinite(dt)) {
      throw std::logic_error("SharedLink: stalled simulation");
    }

    // Drain the epoch; finished flows leave the working set, the rest keep
    // their (ascending index) order.
    std::size_t k = 0, kept = 0;
    for (std::size_t j = 0; j < live_.size(); ++j) {
      Live flow = live_[j];
      if (k < active_.size() && active_[k] == j) {
        flow.bits_left -= rates_[k++] * dt;
        if (flow.bits_left <= 1e-9) {
          finish_s_[flow.index] = now + dt;
          continue;
        }
      }
      live_[kept++] = flow;
    }
    live_.resize(kept);
    now += dt;
  }
}

std::vector<FlowResult> simulate_shared_link(const std::vector<Flow>& flows,
                                             double bottleneck_bps) {
  SharedLink link(bottleneck_bps);
  for (const Flow& flow : flows) link.add(flow);
  link.run(0.0);  // nothing resumes a one-shot run: no boundary lies below 0
  std::vector<FlowResult> results(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    results[i].finish_time_s = link.finish_s(i);
  }
  return results;
}

}  // namespace fedsu::net

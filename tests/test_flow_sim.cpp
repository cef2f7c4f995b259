#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/async_queue.h"
#include "net/flow_sim.h"
#include "net/round_timeline.h"

namespace fedsu::net {
namespace {

// splitmix64: a fixed integer stream, identical on every platform.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

struct TraceBatch {
  double floor_s = 0.0;  // every flow of the batch starts at or after this
  std::size_t end = 0;   // one past the batch's last flow index
};

struct Trace {
  std::vector<Flow> flows;
  std::vector<TraceBatch> batches;
};

// An async-like upload trace: `cycles` dispatch cycles of `per_cycle`
// flows each. A cycle's flows start at its floor plus a compute time (zero
// for one in eight, so they start exactly at the floor); one in sixteen
// carries no bytes; caps mix straggler, typical and fat access links. All
// inputs are dyadic rationals or one fixed division, so the trace is the
// same on every IEEE-754 platform.
Trace async_like_trace(std::uint64_t seed, int cycles, int per_cycle) {
  SplitMix64 rng{seed};
  Trace trace;
  double floor_s = 0.0;
  for (int c = 0; c < cycles; ++c) {
    for (int k = 0; k < per_cycle; ++k) {
      const std::uint64_t r = rng.next();
      const std::uint64_t compute = (r & 7) == 0 ? 0 : (r >> 3) % 1024;
      const std::uint64_t tier = (r >> 40) % 8;
      Flow flow;
      flow.start_time_s = floor_s + static_cast<double>(compute) / 256.0;
      flow.bytes = ((r >> 13) & 15) == 0
                       ? 0.0
                       : static_cast<double>(20000 + (r >> 17) % 100000);
      flow.rate_cap_bps = tier == 0 ? 0.1e6 / 3.0 : tier == 7 ? 8e6 : 0.1e6;
      trace.flows.push_back(flow);
    }
    trace.batches.push_back(TraceBatch{floor_s, trace.flows.size()});
    floor_s += static_cast<double>(1 + rng.next() % 768) / 256.0;
  }
  return trace;
}

// FNV-1a over the raw bits of each double, byte order fixed.
std::uint64_t bits_hash(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(MaxMinFair, EqualFlowsShareEqually) {
  const auto rates = max_min_fair_rates({100.0, 100.0, 100.0, 100.0}, 40.0);
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(MaxMinFair, CappedFlowGetsCapRestShareRemainder) {
  // Capacity 30, caps {5, 100, 100}: capped flow takes 5, others 12.5 each.
  const auto rates = max_min_fair_rates({5.0, 100.0, 100.0}, 30.0);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 12.5);
  EXPECT_DOUBLE_EQ(rates[2], 12.5);
}

TEST(MaxMinFair, AllCapsUnderCapacityGiveCaps) {
  const auto rates = max_min_fair_rates({3.0, 4.0}, 100.0);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
}

TEST(MaxMinFair, CascadingFreeze) {
  // Capacity 12, caps {2, 5, 100}: pass1 fair=4 freezes 2; pass2 fair=5
  // freezes 5; pass3 the last gets 5.
  const auto rates = max_min_fair_rates({2.0, 5.0, 100.0}, 12.0);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
  EXPECT_DOUBLE_EQ(rates[2], 5.0);
}

TEST(MaxMinFair, TotalNeverExceedsCapacity) {
  const auto rates = max_min_fair_rates({7.0, 9.0, 13.0, 2.0}, 20.0);
  double total = 0.0;
  for (double r : rates) total += r;
  EXPECT_LE(total, 20.0 + 1e-9);
}

TEST(MaxMinFair, Errors) {
  EXPECT_THROW(max_min_fair_rates({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(max_min_fair_rates({0.0}, 1.0), std::invalid_argument);
  EXPECT_TRUE(max_min_fair_rates({}, 1.0).empty());
}

TEST(FlowSim, SingleFlowClientCapped) {
  // 1 MB at 8 Mbps cap over a fat bottleneck: exactly 1 second.
  std::vector<Flow> flows{{0.0, 1e6, 8e6}};
  const auto results = simulate_shared_link(flows, 1e12);
  EXPECT_NEAR(results[0].finish_time_s, 1.0, 1e-9);
}

TEST(FlowSim, SingleFlowBottleneckCapped) {
  std::vector<Flow> flows{{0.0, 1e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_NEAR(results[0].finish_time_s, 1.0, 1e-9);
}

TEST(FlowSim, TwoEqualFlowsHalveThroughput) {
  // Two 1 MB flows over an 8 Mbps bottleneck: both finish at 2 s.
  std::vector<Flow> flows{{0.0, 1e6, 1e12}, {0.0, 1e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_NEAR(results[0].finish_time_s, 2.0, 1e-9);
  EXPECT_NEAR(results[1].finish_time_s, 2.0, 1e-9);
}

TEST(FlowSim, ShortFlowFinishesThenLongSpeedsUp) {
  // Flow A: 1 MB, flow B: 3 MB, bottleneck 8 Mbps (1 MB/s).
  // Shared 0.5 MB/s each until A done at t=2 (A moved 1 MB);
  // B then has 2 MB left at full 1 MB/s -> done at t=4.
  std::vector<Flow> flows{{0.0, 1e6, 1e12}, {0.0, 3e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_NEAR(results[0].finish_time_s, 2.0, 1e-6);
  EXPECT_NEAR(results[1].finish_time_s, 4.0, 1e-6);
}

TEST(FlowSim, StaggeredArrivalGetsFullLinkFirst) {
  // Flow A starts at 0 with 1 MB; flow B arrives at 0.5 s with 1 MB; the
  // bottleneck moves 1 MB/s. A alone for 0.5 s (0.5 MB left), then both at
  // 0.5 MB/s: A done at 1.5 s with B at 0.5 MB left, then B alone at full
  // rate -> done at 2.0 s.
  std::vector<Flow> flows{{0.0, 1e6, 1e12}, {0.5, 1e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_NEAR(results[0].finish_time_s, 1.5, 1e-6);
  EXPECT_NEAR(results[1].finish_time_s, 2.0, 1e-6);
}

TEST(FlowSim, ZeroByteFlowFinishesAtStart) {
  std::vector<Flow> flows{{3.0, 0.0, 1e6}, {0.0, 1e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_DOUBLE_EQ(results[0].finish_time_s, 3.0);
  EXPECT_NEAR(results[1].finish_time_s, 1.0, 1e-9);
}

TEST(FlowSim, IdleGapBeforeLateArrival) {
  std::vector<Flow> flows{{5.0, 1e6, 1e12}};
  const auto results = simulate_shared_link(flows, 8e6);
  EXPECT_NEAR(results[0].finish_time_s, 6.0, 1e-9);
}

TEST(FlowSim, RejectsBadInput) {
  EXPECT_THROW(simulate_shared_link({{0.0, -1.0, 1.0}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulate_shared_link({{0.0, 1.0, 0.0}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulate_shared_link({{0.0, 1.0, 1.0}}, 0.0),
               std::invalid_argument);
}

TEST(FlowSim, ConservesWork) {
  // Total bytes / bottleneck is a lower bound on the makespan; with one
  // continuously-busy bottleneck it is exact once all flows have arrived
  // at time 0 and caps exceed the fair share.
  std::vector<Flow> flows;
  double total_bytes = 0.0;
  for (int i = 0; i < 5; ++i) {
    flows.push_back({0.0, 1e6 * (i + 1), 1e12});
    total_bytes += 1e6 * (i + 1);
  }
  const auto results = simulate_shared_link(flows, 8e6);
  double makespan = 0.0;
  for (const auto& r : results) makespan = std::max(makespan, r.finish_time_s);
  EXPECT_NEAR(makespan, total_bytes * 8.0 / 8e6, 1e-6);
}

// --- resuming from a checkpoint --------------------------------------------

TEST(SharedLinkResume, BatchesUnderARisingFloorMatchFromEmptyRuns) {
  // Differential check of the checkpointed uplink against from-empty runs.
  // Like the async engine, each floor is an aggregation instant (a
  // completion time) and new flows start at or after it: exactly at it,
  // at one shared start, or later. Zero-byte flows and caps on both sides
  // of the fair share ride along, over a server-bound and a client-bound
  // bottleneck.
  const double caps[] = {0.05e6, 0.1e6, 0.3e6, 2e6};
  for (const double server_bps : {0.4e6, 1e9}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("server " + std::to_string(server_bps) + " seed " +
                   std::to_string(seed));
      SplitMix64 rng{seed};
      AsyncUplink uplink(server_bps);
      double floor_s = 0.0;
      for (int batch = 0; batch < 30; ++batch) {
        uplink.raise_floor(floor_s);
        const double shared_start =
            floor_s + static_cast<double>(rng.next() % 64) / 32.0;
        const int count = static_cast<int>(rng.next() % 8);
        for (int k = 0; k < count; ++k) {
          const std::uint64_t r = rng.next();
          Flow flow;
          switch (r % 4) {
            case 0: flow.start_time_s = floor_s; break;
            case 1: flow.start_time_s = shared_start; break;
            default:
              flow.start_time_s =
                  floor_s + static_cast<double>((r >> 2) % 4096) / 1024.0;
          }
          flow.bytes = ((r >> 14) & 7) == 0
                           ? 0.0
                           : static_cast<double>(1000 + (r >> 17) % 50000);
          flow.rate_cap_bps = caps[(r >> 40) % 4];
          uplink.add(flow.start_time_s, flow.bytes, flow.rate_cap_bps);
        }

        const auto reference =
            simulate_shared_link(uplink.flows(), server_bps);
        std::vector<double> ahead;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(uplink.completion_s(i), reference[i].finish_time_s)
              << "batch " << batch << " flow " << i;
          if (reference[i].finish_time_s >= floor_s) {
            ahead.push_back(reference[i].finish_time_s);
          }
        }
        // The next cycle starts at one of the next few arrivals (or stays
        // put when nothing is in flight).
        std::sort(ahead.begin(), ahead.end());
        if (!ahead.empty()) {
          floor_s = ahead[rng.next() % std::min<std::size_t>(ahead.size(), 4)];
        }
      }
    }
  }
}

TEST(SharedLinkResume, AsyncLikeTraceIsPinned) {
  // A fixed 3,000-flow trace whose completion bits were hashed from the
  // original event loop, which replayed every flow from t = 0 on each call.
  // The one-shot wrapper and the checkpointed uplink fed batch by batch
  // must both reproduce that hash.
  constexpr std::uint64_t kPinned = 0xe7c780d8293a8984ULL;
  constexpr double kServerBps = 12e6;
  const Trace trace = async_like_trace(0x5eed, 120, 25);
  ASSERT_EQ(trace.flows.size(), 3000u);

  const auto results = simulate_shared_link(trace.flows, kServerBps);
  std::vector<double> one_shot;
  for (const FlowResult& r : results) one_shot.push_back(r.finish_time_s);
  EXPECT_EQ(bits_hash(one_shot), kPinned);

  AsyncUplink uplink(kServerBps);
  std::size_t next = 0;
  for (const TraceBatch& batch : trace.batches) {
    uplink.raise_floor(batch.floor_s);
    for (; next < batch.end; ++next) {
      const Flow& f = trace.flows[next];
      uplink.add(f.start_time_s, f.bytes, f.rate_cap_bps);
    }
    uplink.completion_s(0);  // one resumed run per cycle
  }
  std::vector<double> resumed;
  for (std::size_t i = 0; i < uplink.size(); ++i) {
    resumed.push_back(uplink.completion_s(i));
  }
  EXPECT_EQ(bits_hash(resumed), kPinned);
}

TEST(RoundTimeline, TwoPhaseStructure) {
  RoundTimelineInput input;
  input.compute_done_s = {1.0, 2.0};
  input.bytes_up = {1e6, 1e6};
  input.bytes_down = {1e6, 1e6};
  input.client_rate_bps = {8e6, 8e6};
  input.server_bps = 1e12;  // client-capped
  const auto result = simulate_round(input);
  // Uploads: client 0 done at 2.0, client 1 at 3.0 (1 s each, caps bind).
  EXPECT_NEAR(result.upload_done_s[0], 2.0, 1e-9);
  EXPECT_NEAR(result.upload_done_s[1], 3.0, 1e-9);
  EXPECT_NEAR(result.broadcast_start_s, 3.0, 1e-9);
  // Downloads start together and take 1 s each.
  EXPECT_NEAR(result.round_done_s[0], 4.0, 1e-9);
  EXPECT_NEAR(result.round_end_s, 4.0, 1e-9);
}

TEST(RoundTimeline, ServerBottleneckSerializesBroadcast) {
  RoundTimelineInput input;
  input.compute_done_s = {0.0, 0.0};
  input.bytes_up = {0.0, 0.0};  // nothing to upload
  input.bytes_down = {1e6, 1e6};
  input.client_rate_bps = {1e12, 1e12};
  input.server_bps = 8e6;  // 1 MB/s shared
  const auto result = simulate_round(input);
  EXPECT_NEAR(result.broadcast_start_s, 0.0, 1e-9);
  EXPECT_NEAR(result.round_end_s, 2.0, 1e-9);  // 2 MB over 1 MB/s
}

TEST(RoundTimeline, RejectsMismatchedInputs) {
  RoundTimelineInput input;
  input.compute_done_s = {0.0};
  EXPECT_THROW(simulate_round(input), std::invalid_argument);
}

}  // namespace
}  // namespace fedsu::net

// Buffered-async overlapping rounds (FedBuff-style, DESIGN.md §11):
// staleness weighting, arrival ordering, thread-count determinism, barrier
// degeneration, and the fault × buffering reconciliation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "net/async_queue.h"

namespace fedsu::fl {
namespace {

SimulationOptions tiny_options() {
  SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 10;
  options.model.hidden = 16;
  options.dataset.image_size = 10;
  options.dataset.train_count = 400;
  options.dataset.test_count = 120;
  options.num_clients = 4;
  options.local.iterations = 4;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.eval_every = 2;
  return options;
}

SimulationOptions async_options(int buffer_k, double alpha = 0.5) {
  SimulationOptions options = tiny_options();
  options.async.enabled = true;
  options.async.buffer_k = buffer_k;
  options.async.staleness_alpha = alpha;
  return options;
}

std::unique_ptr<compress::SyncProtocol> proto_for(const std::string& name,
                                                  int clients) {
  ProtocolConfig config;
  config.name = name;
  config.num_clients = clients;
  return make_protocol(config);
}

// --- the staleness discount ------------------------------------------------

TEST(StalenessWeight, MatchesTheFedBuffFormula) {
  EXPECT_DOUBLE_EQ(staleness_weight(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(0, 7.0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(5, 0.0), 1.0);  // alpha 0 = unweighted
  EXPECT_DOUBLE_EQ(staleness_weight(1, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(staleness_weight(3, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(staleness_weight(1, 0.5), 1.0 / std::sqrt(2.0));
}

TEST(StalenessWeight, MonotoneInStalenessAndAlpha) {
  for (int s = 0; s < 8; ++s) {
    EXPECT_GT(staleness_weight(s, 0.5), staleness_weight(s + 1, 0.5));
    EXPECT_GT(staleness_weight(s + 1, 0.5), 0.0);
  }
  EXPECT_GT(staleness_weight(4, 0.25), staleness_weight(4, 0.5));
}

// --- arrival ordering ------------------------------------------------------

TEST(ArrivalTiebreak, DeterministicAndKeyedOnAllInputs) {
  const std::uint64_t base = net::arrival_tiebreak(42, 3, 7);
  EXPECT_EQ(net::arrival_tiebreak(42, 3, 7), base);
  EXPECT_NE(net::arrival_tiebreak(43, 3, 7), base);
  EXPECT_NE(net::arrival_tiebreak(42, 2, 7), base);
  EXPECT_NE(net::arrival_tiebreak(42, 3, 8), base);
}

TEST(AsyncUplink, AppendingLaterFlowsLeavesEarlierCompletionsBitwise) {
  // The re-simulation stability contract: flows added after a completion
  // instant must not move that completion (net::SharedLink integrates
  // epochs in absolute time, so traffic starting later cannot contend with
  // bandwidth already spent).
  net::AsyncUplink uplink(1e6);
  const std::size_t f0 = uplink.add(0.0, 1000.0, 8e5);
  const std::size_t f1 = uplink.add(0.0, 2000.0, 8e5);
  const double c0 = uplink.completion_s(f0);
  const double c1 = uplink.completion_s(f1);
  EXPECT_GT(c0, 0.0);
  EXPECT_GT(c1, c0);  // more bytes at the same cap

  const std::size_t f2 = uplink.add(c1 + 1.0, 500.0, 8e5);
  EXPECT_EQ(uplink.completion_s(f0), c0);  // bitwise: same double
  EXPECT_EQ(uplink.completion_s(f1), c1);
  EXPECT_GT(uplink.completion_s(f2), c1);
  EXPECT_EQ(uplink.size(), 3u);

  // Under a raised floor the uplink resumes from its checkpoint instead of
  // t = 0. The floor here is a completion instant, as an async cycle start
  // is, and one new flow starts exactly on it.
  uplink.raise_floor(c0);
  const std::size_t f3 = uplink.add(c0, 700.0, 8e5);
  const std::size_t f4 = uplink.add(c0 + 0.25, 0.0, 8e5);
  EXPECT_EQ(uplink.completion_s(f0), c0);
  EXPECT_GT(uplink.completion_s(f3), c0);
  EXPECT_EQ(uplink.completion_s(f4), c0 + 0.25);  // zero bytes: at its start

  // An uplink rebuilt mid-run from the flow history (checkpoint restore)
  // replays from t = 0 and answers bitwise like the live one, then and
  // after both take the same later flow.
  net::AsyncUplink rebuilt(1e6);
  rebuilt.restore_flows(uplink.flows());
  for (std::size_t f = 0; f < uplink.size(); ++f) {
    EXPECT_EQ(rebuilt.completion_s(f), uplink.completion_s(f)) << f;
  }
  for (net::AsyncUplink* u : {&uplink, &rebuilt}) {
    u->raise_floor(c1);
    u->add(c1, 900.0, 3e5);
  }
  for (std::size_t f = 0; f < uplink.size(); ++f) {
    EXPECT_EQ(rebuilt.completion_s(f), uplink.completion_s(f)) << f;
  }

  // The contract is enforced where a flow is added: below the floor, a
  // negative start or byte count, or a non-positive cap all throw, and a
  // floor never drops.
  EXPECT_THROW(uplink.add(c1 - 0.5, 100.0, 8e5), std::invalid_argument);
  EXPECT_THROW(uplink.add(c1, -1.0, 8e5), std::invalid_argument);
  EXPECT_THROW(uplink.add(c1, 100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(uplink.add(c1, 100.0, -8e5), std::invalid_argument);
  EXPECT_THROW(uplink.raise_floor(c0), std::invalid_argument);
  EXPECT_THROW(net::AsyncUplink(1e6).add(-1.0, 100.0, 8e5),
               std::invalid_argument);
  EXPECT_EQ(uplink.size(), 6u);  // rejected flows were never added
}

// --- §5b determinism, extended to the async engine -------------------------

struct AsyncRun {
  std::vector<RoundRecord> records;
  std::vector<float> state;
};

AsyncRun run_async(SimulationOptions options, const std::string& proto,
                   int cycles) {
  Simulation sim(options, proto_for(proto, options.num_clients));
  AsyncRun out;
  out.records = sim.run(cycles);
  out.state = sim.global_state();
  return out;
}

TEST(AsyncDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  for (int threads : {4, 8}) {
    SimulationOptions base = async_options(2);
    base.threads = 1;
    SimulationOptions alt = async_options(2);
    alt.threads = threads;
    const AsyncRun a = run_async(base, "fedsu", 8);
    const AsyncRun b = run_async(alt, "fedsu", 8);

    ASSERT_EQ(a.state.size(), b.state.size());
    EXPECT_EQ(std::memcmp(a.state.data(), b.state.data(),
                          a.state.size() * sizeof(float)),
              0)
        << "threads=" << threads;
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      const RoundRecord& ra = a.records[i];
      const RoundRecord& rb = b.records[i];
      EXPECT_EQ(ra.round_time_s, rb.round_time_s) << "cycle " << i;
      EXPECT_EQ(ra.bytes_up, rb.bytes_up) << "cycle " << i;
      EXPECT_EQ(ra.bytes_down, rb.bytes_down) << "cycle " << i;
      EXPECT_EQ(ra.num_participants, rb.num_participants) << "cycle " << i;
      ASSERT_TRUE(ra.async.has_value());
      ASSERT_TRUE(rb.async.has_value());
      EXPECT_EQ(ra.async->consumed, rb.async->consumed) << "cycle " << i;
      EXPECT_EQ(ra.async->max_staleness, rb.async->max_staleness)
          << "cycle " << i;
      EXPECT_EQ(ra.async->weight_sum, rb.async->weight_sum) << "cycle " << i;
      EXPECT_EQ(ra.async->fill_time_s, rb.async->fill_time_s) << "cycle " << i;
    }
  }
}

// --- barrier degeneration --------------------------------------------------

TEST(AsyncBarrier, KEqualToCohortWithoutFaultsIsTheSyncPathBitwise) {
  // DESIGN.md §11: K >= cohort with zero fault rates is structurally a
  // barrier, and the engine routes it to the exact synchronous path — the
  // whole byte stream (states, bytes, simulated clock) must match a plain
  // synchronous run with full participation under the flow-level model.
  SimulationOptions sync_options = tiny_options();
  sync_options.participation_fraction = 1.0;
  sync_options.timing = TimingModel::kFlowLevel;

  for (const char* proto : {"fedsu", "fedavg"}) {
    Simulation sync_sim(sync_options, proto_for(proto, 4));
    Simulation async_sim(async_options(4), proto_for(proto, 4));
    const auto sync_records = sync_sim.run(6);
    const auto async_records = async_sim.run(6);

    const auto& s = sync_sim.global_state();
    const auto& a = async_sim.global_state();
    ASSERT_EQ(s.size(), a.size());
    EXPECT_EQ(std::memcmp(s.data(), a.data(), s.size() * sizeof(float)), 0)
        << proto;
    ASSERT_EQ(sync_records.size(), async_records.size());
    for (std::size_t i = 0; i < sync_records.size(); ++i) {
      EXPECT_EQ(sync_records[i].round_time_s, async_records[i].round_time_s)
          << proto << " round " << i;
      EXPECT_EQ(sync_records[i].bytes_up, async_records[i].bytes_up)
          << proto << " round " << i;
      EXPECT_EQ(sync_records[i].bytes_down, async_records[i].bytes_down)
          << proto << " round " << i;
      EXPECT_EQ(sync_records[i].num_participants,
                async_records[i].num_participants)
          << proto << " round " << i;
      // The degenerate route IS the synchronous path: no async stats.
      EXPECT_FALSE(async_records[i].async.has_value()) << proto;
    }
  }
}

TEST(AsyncBarrier, KBeyondCohortClampsToTheBarrier) {
  // buffer_k far above the cohort cannot buffer more than the cohort ever
  // produces: with zero faults it is the same barrier as K == cohort.
  const AsyncRun exact = run_async(async_options(4), "fedsu", 6);
  const AsyncRun oversized = run_async(async_options(17), "fedsu", 6);
  ASSERT_EQ(exact.state.size(), oversized.state.size());
  EXPECT_EQ(std::memcmp(exact.state.data(), oversized.state.data(),
                        exact.state.size() * sizeof(float)),
            0);
  ASSERT_EQ(exact.records.size(), oversized.records.size());
  for (std::size_t i = 0; i < exact.records.size(); ++i) {
    EXPECT_EQ(exact.records[i].round_time_s, oversized.records[i].round_time_s);
    EXPECT_EQ(exact.records[i].bytes_up, oversized.records[i].bytes_up);
  }
}

TEST(AsyncBarrier, FaultyOversizedKRunsTheAsyncEngineClamped) {
  // With faults on, K >= cohort is NOT a barrier (a crashed client would
  // block the buffer forever): the async engine runs with K clamped to the
  // cohort and reports its effective value.
  SimulationOptions options = async_options(17);
  options.faults.straggler_probability = 0.3;
  const AsyncRun run = run_async(options, "fedavg", 6);
  for (const RoundRecord& r : run.records) {
    ASSERT_TRUE(r.async.has_value());
    EXPECT_EQ(r.async->buffer_k, 4);
    EXPECT_LE(r.async->consumed, 4);
    ASSERT_TRUE(r.faults.has_value());
  }
}

// --- staleness semantics ---------------------------------------------------

TEST(AsyncStaleness, AlphaZeroReducesToUnweightedBuffering) {
  // K = 1 with a 4-client cohort leaves three version-0 legs in flight after
  // the first aggregation, so later cycles consume genuinely stale uploads.
  const AsyncRun run = run_async(async_options(1, /*alpha=*/0.0), "fedavg", 8);
  bool saw_stale = false;
  for (const RoundRecord& r : run.records) {
    ASSERT_TRUE(r.async.has_value());
    // Unweighted: every consumed upload carries weight exactly 1.
    EXPECT_EQ(r.async->weight_sum, static_cast<double>(r.async->consumed))
        << "cycle " << r.round;
    saw_stale = saw_stale || r.async->max_staleness > 0;
  }
  EXPECT_TRUE(saw_stale) << "K=1 never consumed a stale upload";
}

TEST(AsyncStaleness, PositiveAlphaDiscountsStaleUploads) {
  const AsyncRun run = run_async(async_options(1, /*alpha=*/2.0), "fedavg", 8);
  bool saw_discount = false;
  for (const RoundRecord& r : run.records) {
    ASSERT_TRUE(r.async.has_value());
    EXPECT_LE(r.async->weight_sum, static_cast<double>(r.async->consumed));
    if (r.async->max_staleness > 0) {
      EXPECT_LT(r.async->weight_sum, static_cast<double>(r.async->consumed))
          << "cycle " << r.round;
      saw_discount = true;
    }
  }
  EXPECT_TRUE(saw_discount);
}

TEST(AsyncStaleness, UploadsSurviveBeingSupersededTwice) {
  // K = 1: the last of the first wave's legs is consumed only after several
  // aggregations — its model version has been superseded at least twice.
  // The run must keep aggregating and the state must stay finite.
  const AsyncRun run = run_async(async_options(1), "fedsu", 10);
  int max_staleness = 0;
  for (const RoundRecord& r : run.records) {
    ASSERT_TRUE(r.async.has_value());
    max_staleness = std::max(max_staleness, r.async->max_staleness);
    EXPECT_EQ(r.num_participants, r.async->consumed);
    int hist_sum = 0;
    for (int count : r.async->staleness_hist) hist_sum += count;
    EXPECT_EQ(hist_sum, r.async->consumed) << "cycle " << r.round;
  }
  EXPECT_GE(max_staleness, 2);
  for (float v : run.state) ASSERT_TRUE(std::isfinite(v));
}

// --- faults × buffering ----------------------------------------------------

FaultOptions hostile_mix() {
  FaultOptions f;
  f.crash_probability = 0.1;
  f.crash_rounds_max = 2;
  f.straggler_probability = 0.25;
  f.upload_loss_probability = 0.2;
  f.max_retries = 1;
  f.retry_backoff_s = 1.0;
  f.corruption_probability = 0.1;
  return f;
}

TEST(AsyncFaults, CumulativeReconciliationAndThreadIdentity) {
  // Async pipelining breaks the per-round fault balance (a cycle consumes
  // uploads dispatched cycles earlier), so the invariant is cumulative:
  // every dispatched leg is eventually consumed, lost, corrupted,
  // deadline-dropped, or still in flight when the run ends.
  auto run_with = [](int threads) {
    SimulationOptions options = async_options(2);
    options.num_clients = 6;
    options.threads = threads;
    options.faults = hostile_mix();
    return run_async(options, "fedsu", 12);
  };
  const AsyncRun a = run_with(1);
  const AsyncRun b = run_with(4);

  long long selected = 0, consumed = 0, lost = 0, corrupt = 0, deadline = 0,
            unused = 0;
  for (const RoundRecord& r : a.records) {
    ASSERT_TRUE(r.faults.has_value());
    ASSERT_TRUE(r.async.has_value());
    selected += r.faults->selected;
    consumed += r.async->consumed;
    lost += r.uploads_lost;
    corrupt += r.faults->corrupt;
    deadline += r.faults->deadline_missed;
    unused += r.faults->unused;
    EXPECT_EQ(r.num_participants, r.async->consumed);
  }
  const long long final_inflight = a.records.back().async->inflight;
  EXPECT_EQ(selected,
            consumed + lost + corrupt + deadline + unused + final_inflight);
  EXPECT_GT(consumed, 0);

  // §5b under faults AND buffering: bitwise identity across thread counts.
  ASSERT_EQ(a.state.size(), b.state.size());
  EXPECT_EQ(std::memcmp(a.state.data(), b.state.data(),
                        a.state.size() * sizeof(float)),
            0);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].round_time_s, b.records[i].round_time_s)
        << "cycle " << i;
    EXPECT_EQ(a.records[i].num_participants, b.records[i].num_participants)
        << "cycle " << i;
    EXPECT_EQ(a.records[i].uploads_lost, b.records[i].uploads_lost)
        << "cycle " << i;
    EXPECT_EQ(a.records[i].async->inflight, b.records[i].async->inflight)
        << "cycle " << i;
  }
}

TEST(AsyncFaults, BufferSmallerThanTheQuorumStillAggregates) {
  // docs/FAULT_MODEL.md §6: a cycle stalls below min(min_quorum, K)
  // deliverable arrivals, so K = 2 under a quorum of 3 aggregates as soon
  // as its two uploads are in instead of stalling forever.
  SimulationOptions options = async_options(2);
  options.num_clients = 6;
  options.faults.deadline_s = 1e12;  // enables the plan, never binds
  options.faults.min_quorum = 3;
  const AsyncRun run = run_async(options, "fedavg", 10);
  for (const RoundRecord& r : run.records) {
    ASSERT_TRUE(r.faults.has_value());
    EXPECT_TRUE(r.faults->quorum_met) << "cycle " << r.round;
    EXPECT_EQ(r.num_participants, 2) << "cycle " << r.round;
  }
}

// --- the FedSU version fence -----------------------------------------------

TEST(VersionFence, AllCurrentDispatchRoundsMatchTheUnversionedPathBitwise) {
  // dispatch_rounds filled with the current model version must be a no-op:
  // no participant predates any speculation phase, so the fence never
  // triggers and the manager's trajectory is bit-identical to the
  // historical (empty dispatch_rounds) call.
  auto drive = [](bool versioned) {
    core::FedSuOptions fedsu_options;
    fedsu_options.t_r = 0.2;
    fedsu_options.t_s = 2.0;
    fedsu_options.warmup = 2;
    fedsu_options.initial_no_check = 2;
    core::FedSuManager manager(2, fedsu_options);
    const std::size_t p = 6;
    std::vector<float> global(p, 0.0f);
    manager.initialize(global);
    std::vector<std::vector<float>> globals;
    for (int r = 0; r < 14; ++r) {
      std::vector<float> submitted(p);
      for (std::size_t j = 0; j < p; ++j) {
        const float amp = 0.01f * static_cast<float>(j + 1) *
                          ((r % 3 == 0) ? 1.25f : 1.0f);
        submitted[j] = global[j] + ((r % 2 == 0) ? amp : -amp);
      }
      compress::RoundContext ctx;
      ctx.round = r;
      ctx.participants = {0, 1};
      if (versioned) ctx.dispatch_rounds = {r, r};  // both trained on current
      std::vector<std::span<const float>> views(
          2, std::span<const float>(submitted));
      global = manager.synchronize(ctx, views).new_global;
      globals.push_back(global);
    }
    return globals;
  };
  const auto unversioned = drive(false);
  const auto versioned = drive(true);
  ASSERT_EQ(unversioned.size(), versioned.size());
  for (std::size_t r = 0; r < unversioned.size(); ++r) {
    EXPECT_EQ(std::memcmp(unversioned[r].data(), versioned[r].data(),
                          unversioned[r].size() * sizeof(float)),
              0)
        << "diverged at round " << r;
  }
}

TEST(VersionFence, RejectsMismatchedDispatchRounds) {
  core::FedSuManager manager(2);
  std::vector<float> global(4, 0.0f);
  manager.initialize(global);
  std::vector<float> submitted(4, 0.1f);
  compress::RoundContext ctx;
  ctx.round = 0;
  ctx.participants = {0, 1};
  ctx.dispatch_rounds = {0};  // one entry for two participants
  std::vector<std::span<const float>> views(2,
                                            std::span<const float>(submitted));
  EXPECT_THROW(manager.synchronize(ctx, views), std::invalid_argument);
}

}  // namespace
}  // namespace fedsu::fl

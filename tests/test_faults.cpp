// Fault injection & churn (fl/faults + the Simulation fault pipeline +
// FedSuManager rejoin reconciliation — DESIGN.md §10, docs/FAULT_MODEL.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "compress/wire.h"
#include "core/fedsu_manager.h"
#include "fl/faults.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"

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

std::unique_ptr<compress::SyncProtocol> proto_for(const std::string& name,
                                                  int clients) {
  ProtocolConfig config;
  config.name = name;
  config.num_clients = clients;
  return make_protocol(config);
}

std::string write_trace(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << "round,client,event,value\n" << body;
  EXPECT_TRUE(out.good());
  return path;
}

bool same_faults(const ClientFault& a, const ClientFault& b) {
  return a.absent == b.absent && a.rejoined == b.rejoined &&
         a.straggler == b.straggler && a.compute_factor == b.compute_factor &&
         a.comm_factor == b.comm_factor &&
         a.upload_attempts == b.upload_attempts &&
         a.delivered == b.delivered && a.corrupt == b.corrupt;
}

// --- wire-level checksum ---------------------------------------------------

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32/IEEE check: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(compress::wire::crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(compress::wire::crc32(std::span<const std::uint8_t>{}),
            0x00000000u);
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  std::vector<std::uint8_t> payload = {0x00, 0xff, 0x5a, 0x17, 0x80, 0x01};
  const std::uint32_t clean = compress::wire::crc32(payload);
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(compress::wire::crc32(payload), clean) << "bit " << bit;
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// --- the plan itself -------------------------------------------------------

TEST(FaultPlan, ZeroRatesStayDisabled) {
  EXPECT_FALSE(FaultPlan().enabled());
  EXPECT_FALSE(FaultPlan(FaultOptions{}).enabled());
  FaultOptions on;
  on.straggler_probability = 0.1;
  EXPECT_TRUE(FaultPlan(on).enabled());
}

TEST(FaultPlan, DeterministicInSeedRoundClient) {
  FaultOptions options;
  options.crash_probability = 0.1;
  options.straggler_probability = 0.2;
  options.upload_loss_probability = 0.2;
  options.max_retries = 2;
  options.corruption_probability = 0.1;

  FaultPlan a(options), b(options);
  bool differs_somewhere = false;
  FaultOptions reseeded = options;
  reseeded.seed ^= 0x1234567;
  FaultPlan c(reseeded);
  for (int round = 0; round < 40; ++round) {
    a.begin_round(round, 8);
    b.begin_round(round, 8);
    c.begin_round(round, 8);
    for (int client = 0; client < 8; ++client) {
      EXPECT_TRUE(same_faults(a.fault(client), b.fault(client)))
          << "round " << round << " client " << client;
      if (!same_faults(a.fault(client), c.fault(client))) {
        differs_somewhere = true;
      }
    }
  }
  EXPECT_TRUE(differs_somewhere) << "reseeding changed nothing in 320 draws";
}

TEST(FaultPlan, CrashAbsencesAreContiguousAndEndInARejoin) {
  FaultOptions options;
  options.crash_probability = 0.3;
  options.crash_rounds_min = 2;
  options.crash_rounds_max = 4;
  FaultPlan plan(options);

  const int clients = 6;
  std::vector<bool> was_absent(clients, false);
  int total_onsets = 0, total_rejoins = 0;
  for (int round = 0; round < 60; ++round) {
    plan.begin_round(round, clients);
    total_onsets += plan.round_summary().onsets;
    total_rejoins += plan.round_summary().rejoined;
    for (int c = 0; c < clients; ++c) {
      const ClientFault& f = plan.fault(c);
      // The first round back is flagged exactly once, and never overlaps
      // the absence itself.
      EXPECT_EQ(f.rejoined, was_absent[c] && !f.absent);
      if (f.absent) {
        EXPECT_FALSE(f.delivered);
      }
      was_absent[c] = f.absent;
    }
  }
  EXPECT_GT(total_onsets, 0);
  EXPECT_GT(total_rejoins, 0);
  EXPECT_LE(total_rejoins, total_onsets);
}

TEST(FaultPlan, CsvTraceDrivesEvents) {
  const std::string path = write_trace("plan_trace.csv",
                                       "# comment line\n"
                                       "1,0,crash,2\n"
                                       "1,1,straggle-compute,3.5\n"
                                       "1,2,lose-upload,0\n"
                                       "4,3,corrupt,0\n");
  FaultOptions options;
  options.trace_csv = path;
  options.max_retries = 1;
  FaultPlan plan(options);
  EXPECT_TRUE(plan.enabled());

  plan.begin_round(0, 4);
  for (int c = 0; c < 4; ++c) EXPECT_FALSE(plan.fault(c).absent);

  plan.begin_round(1, 4);
  EXPECT_TRUE(plan.fault(0).absent);
  EXPECT_TRUE(plan.fault(1).straggler);
  EXPECT_DOUBLE_EQ(plan.fault(1).compute_factor, 3.5);
  EXPECT_FALSE(plan.fault(2).delivered);

  plan.begin_round(2, 4);
  EXPECT_TRUE(plan.fault(0).absent);
  plan.begin_round(3, 4);
  EXPECT_FALSE(plan.fault(0).absent);
  EXPECT_TRUE(plan.fault(0).rejoined);

  plan.begin_round(4, 4);
  EXPECT_TRUE(plan.fault(3).corrupt);
  EXPECT_FALSE(plan.fault(0).rejoined);
}

// --- server-crash family ---------------------------------------------------

TEST(FaultPlan, ServerCrashKnobsDoNotEngageClientFaults) {
  // The server family must not flip the client-fault pipeline on: enabling
  // it would change participant selection, telemetry format, and byte
  // accounting of an otherwise faultless run.
  FaultOptions options;
  options.server_crash_at = 5;
  FaultPlan plan(options);
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.server_faults_enabled());
  EXPECT_FALSE(plan.server_crash(4));
  EXPECT_TRUE(plan.server_crash(5));
  EXPECT_FALSE(plan.server_crash(6));

  EXPECT_FALSE(FaultPlan().server_faults_enabled());
}

TEST(FaultPlan, ServerCrashProbabilityIsAPureFunctionOfSeedAndRound) {
  FaultOptions options;
  options.server_crash_probability = 0.25;
  FaultPlan a(options), b(options);
  FaultOptions reseeded = options;
  reseeded.seed ^= 0xabcdef;
  FaultPlan c(reseeded);
  int crashes = 0;
  bool differs = false;
  for (int round = 0; round < 200; ++round) {
    // Stateless: the same (seed, round) always answers the same, with no
    // begin_round required and no cross-round coupling.
    EXPECT_EQ(a.server_crash(round), b.server_crash(round)) << round;
    EXPECT_EQ(a.server_crash(round), a.server_crash(round)) << round;
    if (a.server_crash(round)) ++crashes;
    if (a.server_crash(round) != c.server_crash(round)) differs = true;
  }
  EXPECT_GT(crashes, 10);
  EXPECT_LT(crashes, 100);
  EXPECT_TRUE(differs) << "reseeding changed nothing in 200 draws";
}

TEST(FaultPlan, ServerCrashTraceEventDrivesTheCrash) {
  const std::string path = write_trace("server_crash_trace.csv",
                                       "3,0,server-crash,0\n");
  FaultOptions options;
  options.trace_csv = path;
  FaultPlan plan(options);
  // A server-crash-only trace keeps the client pipeline off too.
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.server_faults_enabled());
  EXPECT_FALSE(plan.server_crash(2));
  EXPECT_TRUE(plan.server_crash(3));
  EXPECT_FALSE(plan.server_crash(4));
}

TEST(FaultPlan, RejectsBadServerCrashProbability) {
  FaultOptions bad;
  bad.server_crash_probability = -0.5;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
}

TEST(SimulationServerCrash, StepThrowsAtTheConfiguredRound) {
  SimulationOptions options = tiny_options();
  options.faults.server_crash_at = 3;
  Simulation sim(options, proto_for("fedsu", options.num_clients));
  for (int r = 0; r < 3; ++r) EXPECT_NO_THROW(sim.step());
  try {
    sim.step();
    FAIL() << "round 3 did not crash the server";
  } catch (const ServerCrashed& crash) {
    EXPECT_EQ(crash.round(), 3);
    EXPECT_NE(std::string(crash.what()).find("round 3"), std::string::npos);
  }
  EXPECT_EQ(sim.rounds_completed(), 3);
}

TEST(FaultPlan, RejectsBadOptions) {
  FaultOptions bad;
  bad.crash_probability = 1.5;
  EXPECT_THROW(FaultPlan{bad}, std::invalid_argument);
  FaultOptions quorum;
  quorum.min_quorum = 0;
  EXPECT_THROW(FaultPlan{quorum}, std::invalid_argument);
  FaultOptions rounds;
  rounds.crash_probability = 0.1;
  rounds.crash_rounds_min = 3;
  rounds.crash_rounds_max = 2;
  EXPECT_THROW(FaultPlan{rounds}, std::invalid_argument);
}

// --- simulation pipeline ---------------------------------------------------

FaultOptions hostile_mix() {
  FaultOptions f;
  f.crash_probability = 0.1;
  f.crash_rounds_max = 2;
  f.straggler_probability = 0.25;
  f.upload_loss_probability = 0.2;
  f.max_retries = 1;
  f.retry_backoff_s = 1.0;
  f.corruption_probability = 0.1;
  f.over_select_fraction = 0.25;
  return f;
}

TEST(SimulationFaults, DisabledPlanLeavesRecordsUntouched) {
  SimulationOptions options = tiny_options();
  Simulation sim(options, proto_for("fedsu", options.num_clients));
  EXPECT_FALSE(sim.fault_plan().enabled());
  const auto records = sim.run(4);
  for (const auto& r : records) {
    EXPECT_FALSE(r.faults.has_value());
  }
}

TEST(SimulationFaults, NeutralEnabledPlanMatchesTheDisabledRunBitwise) {
  // An enabled plan that realizes no fault hands every client the same
  // neutral ClientFault{} a disabled plan does, so both engines must
  // simulate the identical run. Coarse timing is left out: its faulty sum
  // associates as (compute + up) + down, which can land an ulp away from
  // the fault-free compute + comm(up, down).
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const char* proto : {"fedavg", "fedsu"}) {
    for (bool async : {false, true}) {
      SCOPED_TRACE(std::string(proto) + (async ? " async" : " sync"));
      SimulationOptions options = tiny_options();
      options.num_clients = 6;
      options.timing = TimingModel::kFlowLevel;
      options.async.enabled = async;
      options.async.buffer_k = 3;
      SimulationOptions neutral = options;
      neutral.faults.deadline_s = 1e12;  // enables the plan, never binds
      Simulation off(options, proto_for(proto, options.num_clients));
      Simulation on(neutral, proto_for(proto, options.num_clients));
      ASSERT_FALSE(off.fault_plan().enabled());
      ASSERT_TRUE(on.fault_plan().enabled());
      const auto a = off.run(8);
      const auto b = on.run(8);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("round " + std::to_string(i));
        EXPECT_EQ(a[i].round, b[i].round);
        EXPECT_EQ(a[i].uploads_lost, b[i].uploads_lost);
        EXPECT_EQ(bits(a[i].round_time_s), bits(b[i].round_time_s));
        EXPECT_EQ(bits(a[i].elapsed_time_s), bits(b[i].elapsed_time_s));
        EXPECT_EQ(bits(a[i].train_loss), bits(b[i].train_loss));
        ASSERT_EQ(a[i].test_accuracy.has_value(),
                  b[i].test_accuracy.has_value());
        if (a[i].test_accuracy) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(*a[i].test_accuracy),
                    std::bit_cast<std::uint32_t>(*b[i].test_accuracy));
        }
        EXPECT_EQ(bits(a[i].sparsification_ratio),
                  bits(b[i].sparsification_ratio));
        EXPECT_EQ(a[i].bytes_up, b[i].bytes_up);
        EXPECT_EQ(a[i].bytes_down, b[i].bytes_down);
        EXPECT_EQ(a[i].num_participants, b[i].num_participants);
        EXPECT_EQ(bits(a[i].speculated_fraction),
                  bits(b[i].speculated_fraction));
        EXPECT_EQ(a[i].fallback_syncs, b[i].fallback_syncs);
        ASSERT_EQ(a[i].async.has_value(), async);
        ASSERT_EQ(b[i].async.has_value(), async);
        if (async) {
          const RoundRecord::AsyncStats& x = *a[i].async;
          const RoundRecord::AsyncStats& y = *b[i].async;
          EXPECT_EQ(x.buffer_k, y.buffer_k);
          EXPECT_EQ(x.consumed, y.consumed);
          EXPECT_EQ(x.inflight, y.inflight);
          EXPECT_EQ(bits(x.fill_time_s), bits(y.fill_time_s));
          EXPECT_EQ(x.max_staleness, y.max_staleness);
          EXPECT_EQ(bits(x.mean_staleness), bits(y.mean_staleness));
          EXPECT_EQ(bits(x.weight_sum), bits(y.weight_sum));
          EXPECT_EQ(x.staleness_hist, y.staleness_hist);
        }
      }
      const std::vector<float>& x = off.global_state();
      const std::vector<float>& y = on.global_state();
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(float)), 0);
    }
  }
}

TEST(SimulationFaults, ScheduleIsIdenticalAcrossThreadCounts) {
  // The §5b contract extended to faults: a hostile mix of churn,
  // stragglers, loss, retries, and corruption must play out bit-for-bit
  // the same whether training fans out over 1 thread or 4.
  auto run_with = [](int threads) {
    SimulationOptions options = tiny_options();
    options.num_clients = 6;
    options.threads = threads;
    options.faults = hostile_mix();
    Simulation sim(options, proto_for("fedsu", options.num_clients));
    auto records = sim.run(10);
    return std::make_pair(std::move(records),
                          std::vector<float>(sim.global_state()));
  };
  auto [records1, state1] = run_with(1);
  auto [records4, state4] = run_with(4);

  ASSERT_EQ(state1.size(), state4.size());
  EXPECT_EQ(std::memcmp(state1.data(), state4.data(),
                        state1.size() * sizeof(float)),
            0);
  ASSERT_EQ(records1.size(), records4.size());
  for (std::size_t i = 0; i < records1.size(); ++i) {
    const auto& a = records1[i];
    const auto& b = records4[i];
    EXPECT_EQ(a.round_time_s, b.round_time_s) << "round " << i;
    EXPECT_EQ(a.bytes_up, b.bytes_up) << "round " << i;
    EXPECT_EQ(a.bytes_down, b.bytes_down) << "round " << i;
    EXPECT_EQ(a.num_participants, b.num_participants) << "round " << i;
    EXPECT_EQ(a.uploads_lost, b.uploads_lost) << "round " << i;
    ASSERT_EQ(a.faults.has_value(), b.faults.has_value()) << "round " << i;
    if (a.faults) {
      EXPECT_EQ(a.faults->crashed, b.faults->crashed) << "round " << i;
      EXPECT_EQ(a.faults->retries, b.faults->retries) << "round " << i;
      EXPECT_EQ(a.faults->corrupt, b.faults->corrupt) << "round " << i;
      EXPECT_EQ(a.faults->quorum_met, b.faults->quorum_met) << "round " << i;
    }
  }
}

TEST(SimulationFaults, FaultCountersBalancePerRound) {
  SimulationOptions options = tiny_options();
  options.num_clients = 6;
  options.faults = hostile_mix();
  Simulation sim(options, proto_for("fedavg", options.num_clients));
  int engaged_rounds = 0;
  for (const auto& r : sim.run(12)) {
    ASSERT_TRUE(r.faults.has_value());
    ++engaged_rounds;
    const auto& fc = *r.faults;
    EXPECT_EQ(fc.selected, r.num_participants + r.uploads_lost + fc.corrupt +
                               fc.deadline_missed + fc.unused)
        << "round " << r.round;
    EXPECT_EQ(fc.quorum_met, r.num_participants > 0) << "round " << r.round;
    if (r.num_participants == 0) {
      EXPECT_EQ(r.bytes_up, 0u);
      EXPECT_EQ(r.speculated_fraction, 0.0);
    }
  }
  EXPECT_EQ(engaged_rounds, 12);
}

TEST(SimulationFaults, RetriesConsumeSimulatedTime) {
  // Two explicit traces, identical except that every client needs a second
  // upload attempt in round 1 of the second run: its round 1 must cost at
  // least the retry backoff more, and the retry tally must say why.
  auto run_with_trace = [](const std::string& path) {
    SimulationOptions options = tiny_options();
    options.faults.trace_csv = path;
    options.faults.max_retries = 1;
    options.faults.retry_backoff_s = 5.0;
    Simulation sim(options, proto_for("fedavg", options.num_clients));
    return sim.run(3);
  };
  const auto clean = run_with_trace(write_trace(
      "retry_none.csv",
      "1,0,lose-upload,1\n1,1,lose-upload,1\n1,2,lose-upload,1\n"
      "1,3,lose-upload,1\n"));
  const auto retried = run_with_trace(write_trace(
      "retry_all.csv",
      "1,0,lose-upload,2\n1,1,lose-upload,2\n1,2,lose-upload,2\n"
      "1,3,lose-upload,2\n"));

  ASSERT_EQ(clean.size(), 3u);
  ASSERT_EQ(retried.size(), 3u);
  // Same aggregation either way — every upload eventually lands...
  EXPECT_EQ(retried[1].num_participants, clean[1].num_participants);
  EXPECT_EQ(retried[1].uploads_lost, 0);
  // ...but the retried round pays: one extra attempt per participant, each
  // preceded by the 5 s backoff on the simulated clock.
  ASSERT_TRUE(retried[1].faults.has_value());
  EXPECT_EQ(retried[1].faults->retries, retried[1].num_participants);
  EXPECT_GE(retried[1].round_time_s, clean[1].round_time_s + 5.0);
  // Rounds without trace events are unaffected.
  EXPECT_EQ(retried[0].round_time_s, clean[0].round_time_s);
}

TEST(SimulationFaults, TotalLossStallsButStaysSelfConsistent) {
  // A round whose every upload is lost stalls — time passes, the state
  // stays put, and the record is self-consistent.
  SimulationOptions options = tiny_options();
  options.faults.upload_loss_probability = 1.0;
  Simulation sim(options, proto_for("fedsu", options.num_clients));
  EXPECT_TRUE(sim.fault_plan().enabled());
  const std::vector<float> before = sim.global_state();
  const auto records = sim.run(3);
  double prev_elapsed = 0.0;
  for (const auto& r : records) {
    EXPECT_EQ(r.num_participants, 0);
    EXPECT_EQ(r.uploads_lost, 3);  // ceil(0.7 * 4) selected, all lost
    EXPECT_EQ(r.bytes_up, 0u);
    EXPECT_EQ(r.speculated_fraction, 0.0);
    EXPECT_GT(r.round_time_s, 0.0);
    EXPECT_GT(r.elapsed_time_s, prev_elapsed);
    prev_elapsed = r.elapsed_time_s;
    ASSERT_TRUE(r.faults.has_value());
    EXPECT_FALSE(r.faults->quorum_met);
  }
  EXPECT_EQ(std::memcmp(before.data(), sim.global_state().data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(SimulationFaults, MinQuorumStallsTheRound) {
  // Loss is heavy but not total; with min_quorum above what survives, the
  // server must refuse the partial aggregate instead of averaging it.
  SimulationOptions options = tiny_options();
  options.seed = 7;
  options.faults.upload_loss_probability = 0.5;
  options.faults.min_quorum = 2;
  Simulation sim(options, proto_for("fedavg", options.num_clients));
  int stalls = 0, aggregates = 0;
  for (const auto& r : sim.run(16)) {
    ASSERT_TRUE(r.faults.has_value());
    if (!r.faults->quorum_met) {
      ++stalls;
      EXPECT_EQ(r.num_participants, 0);
      EXPECT_GT(r.round_time_s, 0.0);
    } else {
      ++aggregates;
      EXPECT_GE(r.num_participants, 2);
    }
  }
  EXPECT_GT(stalls, 0) << "p=0.5 loss never dipped below a quorum of 2";
  EXPECT_GT(aggregates, 0) << "p=0.5 loss never met a quorum of 2";
}

TEST(SimulationFaults, CorruptUploadsAreDetectedAndDiscarded) {
  SimulationOptions options = tiny_options();
  options.faults.corruption_probability = 1.0;
  Simulation sim(options, proto_for("fedavg", options.num_clients));
  const std::vector<float> before = sim.global_state();
  const auto records = sim.run(2);
  for (const auto& r : records) {
    ASSERT_TRUE(r.faults.has_value());
    // Every delivered upload failed its CRC: none may be aggregated.
    EXPECT_EQ(r.num_participants, 0);
    EXPECT_EQ(r.faults->corrupt, 3);
    EXPECT_FALSE(r.faults->quorum_met);
  }
  EXPECT_EQ(std::memcmp(before.data(), sim.global_state().data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(SimulationFaults, OverSelectionBackfillsLostUploads) {
  auto total_participants = [](double over_select) {
    SimulationOptions options = tiny_options();
    options.num_clients = 8;
    options.faults.upload_loss_probability = 0.35;
    options.faults.over_select_fraction = over_select;
    Simulation sim(options, proto_for("fedavg", options.num_clients));
    int total = 0;
    for (const auto& r : sim.run(10)) total += r.num_participants;
    return total;
  };
  // Head-room clients absorb losses; aggregation never exceeds the target.
  EXPECT_GE(total_participants(0.3), total_participants(0.0));
}

TEST(SimulationFaults, RejoinResyncIsChargedAndCounted) {
  SimulationOptions options = tiny_options();
  options.num_clients = 6;
  options.faults.crash_probability = 0.25;
  options.faults.crash_rounds_max = 2;
  Simulation sim(options, proto_for("fedsu", options.num_clients));
  long long resyncs = 0;
  for (const auto& r : sim.run(14)) {
    ASSERT_TRUE(r.faults.has_value());
    EXPECT_EQ(r.faults->resyncs, r.faults->rejoined);
    if (r.faults->resyncs > 0) {
      // The rejoin download (model + protocol join state) is real traffic.
      EXPECT_GT(r.bytes_down, 0u);
    }
    resyncs += r.faults->resyncs;
  }
  EXPECT_GT(resyncs, 0) << "p=0.25 churn never produced a rejoin in 84 draws";
}

TEST(SimulationFaults, AddAndDropDuringChurnStaysDeterministic) {
  // Dynamicity under churn: a client joins and another is dropped in the
  // same round mid-run. Two identical sims must agree bit-for-bit, and the
  // run must keep aggregating afterwards.
  auto run_once = [] {
    SimulationOptions options = tiny_options();
    options.num_clients = 5;
    options.faults.crash_probability = 0.15;
    options.faults.upload_loss_probability = 0.15;
    Simulation sim(options, proto_for("fedsu", options.num_clients));
    data::SyntheticSpec spec = options.dataset;
    spec.train_count = 80;
    spec.seed = 99;
    int participants_after = 0;
    for (int r = 0; r < 12; ++r) {
      if (r == 5) {
        sim.add_client(data::generate_synthetic(spec).train);
        sim.drop_client(1);
      }
      const RoundRecord record = sim.step();
      if (r > 5) participants_after += record.num_participants;
    }
    EXPECT_GT(participants_after, 0);
    return std::vector<float>(sim.global_state());
  };
  const std::vector<float> a = run_once();
  const std::vector<float> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// --- FedSU rejoin reconciliation (the protocol-level correctness hole) ----

// Drives the manager directly with manufactured oscillating trajectories:
// every client submits the same state (the current global plus an
// alternating-sign delta), so parameters promote into speculative mode and
// accumulate nonzero prediction errors — while the aggregate stays exactly
// the same no matter how many clients participate (means over identical
// values are exact for n in {1, 2}).
struct ManagerRun {
  std::vector<std::vector<float>> globals;  // per round
  std::vector<double> predictable;          // per round
  int promotions = 0;
  int expiries = 0;
};

ManagerRun drive_manager(int rounds, int absent_from, int absent_until,
                         bool call_rejoin) {
  core::FedSuOptions fedsu_options;
  // Thresholds tuned so the alternating-sign trajectory actually cycles
  // through promote -> accumulate errors -> expire -> demote (the EMA of a
  // +/-a trajectory settles near (1-theta)/(1+theta) ~ 0.05 of |a|, so T_R
  // must sit above that while T_S stays low enough to demote).
  fedsu_options.t_r = 0.2;
  fedsu_options.t_s = 2.0;
  fedsu_options.ema_decay = 0.9;
  fedsu_options.warmup = 2;
  fedsu_options.initial_no_check = 2;
  core::FedSuManager manager(2, fedsu_options);

  const std::size_t p = 6;
  std::vector<float> global(p, 0.0f);
  manager.initialize(global);

  ManagerRun run;
  for (int r = 0; r < rounds; ++r) {
    const bool absent = r >= absent_from && r < absent_until;
    if (call_rejoin && r == absent_until) {
      manager.on_client_rejoin(1);
    }
    std::vector<float> submitted(p);
    for (std::size_t j = 0; j < p; ++j) {
      // Alternating sign keeps the oscillation ratio small (promotable);
      // the every-third-round magnitude bump keeps the trajectory from
      // being so regular that a missed error term is exactly zero.
      const float amp = 0.01f * static_cast<float>(j + 1) *
                        ((r % 3 == 0) ? 1.25f : 1.0f);
      submitted[j] = global[j] + ((r % 2 == 0) ? amp : -amp);
    }
    compress::RoundContext ctx;
    ctx.round = r;
    ctx.participants = absent ? std::vector<int>{0} : std::vector<int>{0, 1};
    std::vector<std::span<const float>> views(ctx.participants.size(),
                                              std::span<const float>(submitted));
    compress::SyncResult sync = manager.synchronize(ctx, views);
    global = sync.new_global;
    run.globals.push_back(global);
    run.predictable.push_back(manager.predictable_fraction());
    run.promotions += static_cast<int>(
        manager.last_round_diagnostics().promotions);
    run.expiries +=
        static_cast<int>(manager.last_round_diagnostics().expiring);
  }
  return run;
}

TEST(FedSuRejoin, ResyncedRejoinerMatchesTheNeverCrashedRunBitwise) {
  const int rounds = 16;
  const ManagerRun reference =
      drive_manager(rounds, rounds + 1, rounds + 1, false);  // never absent
  const ManagerRun churned =
      drive_manager(rounds, 5, 8, /*call_rejoin=*/true);

  // The scenario must actually exercise speculation across the absence.
  EXPECT_GT(reference.promotions, 0);
  EXPECT_GT(reference.expiries, 0);

  ASSERT_EQ(reference.globals.size(), churned.globals.size());
  for (int r = 0; r < rounds; ++r) {
    ASSERT_EQ(reference.globals[r].size(), churned.globals[r].size());
    EXPECT_EQ(std::memcmp(reference.globals[r].data(),
                          churned.globals[r].data(),
                          reference.globals[r].size() * sizeof(float)),
              0)
        << "diverged at round " << r;
    EXPECT_EQ(reference.predictable[r], churned.predictable[r])
        << "mask diverged at round " << r;
  }
}

TEST(FedSuRejoin, SkippingTheResyncPollutesErrorFeedback) {
  // The pre-PR hole: without on_client_rejoin, the returned client's stale
  // error accumulator (missing the absence rounds' terms) enters Eq. 3 and
  // bends the corrections away from the never-crashed reference.
  const int rounds = 16;
  const ManagerRun reference =
      drive_manager(rounds, rounds + 1, rounds + 1, false);
  const ManagerRun broken =
      drive_manager(rounds, 5, 8, /*call_rejoin=*/false);

  bool diverged = false;
  for (int r = 0; r < rounds && !diverged; ++r) {
    if (std::memcmp(reference.globals[r].data(), broken.globals[r].data(),
                    reference.globals[r].size() * sizeof(float)) != 0 ||
        reference.predictable[r] != broken.predictable[r]) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged)
      << "stale accumulator never surfaced; strengthen the trajectory";
}

TEST(FedSuRejoin, RejoinValidatesClientId) {
  core::FedSuManager manager(2);
  std::vector<float> global(4, 0.0f);
  manager.initialize(global);
  EXPECT_THROW(manager.on_client_rejoin(-1), std::out_of_range);
  EXPECT_THROW(manager.on_client_rejoin(2), std::out_of_range);
  EXPECT_EQ(manager.on_client_rejoin(0), manager.join_state_bytes());
}

// --- snapshot restore onto a churned cohort --------------------------------

// A full "fedsu" protocol with the drive_manager thresholds, so the same
// alternating-sign trajectory promotes parameters and accumulates errors.
std::unique_ptr<compress::SyncProtocol> rejoinable_proto() {
  ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = 2;
  config.fedsu.t_r = 0.2;
  config.fedsu.t_s = 2.0;
  config.fedsu.ema_decay = 0.9;
  config.fedsu.warmup = 2;
  config.fedsu.initial_no_check = 2;
  return make_protocol(config);
}

// Runs `rounds` two-client rounds of the drive_manager trajectory starting
// at `first_round`, returning the final global state. `max_speculated`, when
// given, collects the peak per-round speculated fraction (speculation phases
// expire and re-promote, so any single round may legitimately read zero).
std::vector<float> drive_protocol(compress::SyncProtocol& protocol,
                                  std::vector<float> global, int first_round,
                                  int rounds, double* max_speculated = nullptr) {
  const std::size_t p = global.size();
  for (int r = first_round; r < first_round + rounds; ++r) {
    // Per-client amplitudes must DIFFER: with identical submissions the two
    // error slabs are equal and the filtered mean over {0} equals the mean
    // over {0, 1}, making any slab-release bug invisible.
    std::vector<std::vector<float>> submitted(2, std::vector<float>(p));
    for (int c = 0; c < 2; ++c) {
      for (std::size_t j = 0; j < p; ++j) {
        const float amp = 0.01f * static_cast<float>(j + 1) *
                          ((r % 3 == 0) ? 1.25f : 1.0f) *
                          (c == 0 ? 1.0f : 1.5f);
        submitted[c][j] = global[j] + ((r % 2 == 0) ? amp : -amp);
      }
    }
    compress::RoundContext ctx;
    ctx.round = r;
    ctx.global = global;
    ctx.participants = {0, 1};
    std::vector<std::span<const float>> views = {
        std::span<const float>(submitted[0]),
        std::span<const float>(submitted[1])};
    global = protocol.synchronize(ctx, views).new_global;
    if (max_speculated) {
      *max_speculated =
          std::max(*max_speculated,
                   protocol.last_round_telemetry().speculated_fraction);
    }
  }
  return global;
}

TEST(FedSuRejoin, CheckpointRestoreOntoChurnedCohortRederivesRejoinStamps) {
  // Restoring a protocol snapshot onto a cohort where a client churned
  // between snapshot and restore must re-derive that client's rejoin stamp
  // (restore, then on_client_rejoin): a blind restore keeps its
  // snapshot-era error slab live, replaying stale residuals into every
  // later correction. This test pins that the blind restore really does
  // diverge from the explicit rejoin contract.
  const std::size_t p = 6;
  auto seed_proto = rejoinable_proto();
  std::vector<float> global(p, 0.0f);
  seed_proto->initialize(global);
  // Checkpoint MID speculative phase, after errors have accrued for at
  // least two rounds: a released slab only changes the future while a
  // phase's accumulated errors are live, so a checkpoint taken between
  // phases would make the blind restore trivially correct.
  int k = 0;
  int speculative_streak = 0;
  while (k < 60 && speculative_streak < 2) {
    global = drive_protocol(*seed_proto, global, k, 1);
    ++k;
    if (seed_proto->last_round_telemetry().speculated_fraction > 0.0) {
      ++speculative_streak;
    } else {
      speculative_streak = 0;
    }
  }
  ASSERT_EQ(speculative_streak, 2) << "the trajectory never speculated";
  const std::vector<std::uint8_t> snapshot = seed_proto->snapshot();

  // Reference: the explicit rejoin contract — client 1 churned while the
  // snapshot sat on disk.
  auto explicit_proto = rejoinable_proto();
  explicit_proto->initialize(global);
  explicit_proto->restore(snapshot);
  explicit_proto->on_client_rejoin(1);
  const std::vector<float> explicit_final =
      drive_protocol(*explicit_proto, global, k, 12);

  // The blind restore keeps client 1's stale slab and bends the
  // corrections away.
  auto blind_proto = rejoinable_proto();
  blind_proto->initialize(global);
  blind_proto->restore(snapshot);
  const std::vector<float> blind_final =
      drive_protocol(*blind_proto, global, k, 12);
  EXPECT_NE(std::memcmp(explicit_final.data(), blind_final.data(),
                        p * sizeof(float)),
            0)
      << "blind restore matched the rejoin-correct run; the stale-slab "
         "scenario no longer bites — strengthen the trajectory";
}

TEST(FedSuRejoin, SnapshotRoundTripsTheRejoinState) {
  core::FedSuOptions fedsu_options;
  fedsu_options.warmup = 2;
  core::FedSuManager manager(2, fedsu_options);
  std::vector<float> global(4, 0.0f);
  manager.initialize(global);
  manager.on_client_rejoin(1);
  const auto bytes = manager.snapshot();

  core::FedSuManager copy(2, fedsu_options);
  copy.restore(bytes);
  EXPECT_EQ(copy.snapshot(), bytes);
}

}  // namespace
}  // namespace fedsu::fl

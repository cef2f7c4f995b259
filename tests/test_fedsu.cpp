#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/fedsu_manager.h"
#include "core/fedsu_variants.h"
#include "util/reduce.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsu::core {
namespace {

using compress::RoundContext;
using compress::SyncResult;

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  v.reserve(states.size());
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

// `global` is the model the participants started from; FedSU-v1/v2 read
// it, FedSuManager runs without it.
RoundContext ctx_of(int round, int n, std::span<const float> global = {}) {
  RoundContext ctx;
  ctx.round = round;
  ctx.global = global;
  for (int i = 0; i < n; ++i) ctx.participants.push_back(i);
  return ctx;
}

// Drives a protocol with synthetic client behaviour: each round, client i's
// local state is global + true_slope + per-client zero-mean noise.
class TrajectoryDriver {
 public:
  TrajectoryDriver(compress::SyncProtocol& proto, std::vector<float> global,
                   int num_clients, double noise = 0.0,
                   std::uint64_t seed = 19)
      : proto_(proto),
        global_(std::move(global)),
        num_clients_(num_clients),
        noise_(noise),
        rng_(seed) {
    proto_.initialize(global_);
  }

  // Runs one round with the given per-parameter true slopes.
  SyncResult step(const std::vector<float>& slopes) {
    std::vector<std::vector<float>> states(
        static_cast<std::size_t>(num_clients_));
    for (int i = 0; i < num_clients_; ++i) {
      auto& s = states[static_cast<std::size_t>(i)];
      s.resize(global_.size());
      for (std::size_t j = 0; j < global_.size(); ++j) {
        // Noise is zero-mean ACROSS clients so the global mean follows the
        // slope exactly when noise_ == 0 and approximately otherwise.
        s[j] = global_[j] + slopes[j] +
               static_cast<float>(noise_ * rng_.normal());
      }
    }
    SyncResult result = proto_.synchronize(
        ctx_of(round_++, num_clients_, global_), views(states));
    global_ = result.new_global;
    return result;
  }

  const std::vector<float>& global() const { return global_; }
  int round() const { return round_; }

 private:
  compress::SyncProtocol& proto_;
  std::vector<float> global_;
  int num_clients_;
  double noise_;
  util::Rng rng_;
  int round_ = 0;
};

FedSuOptions fast_options() {
  FedSuOptions options;
  options.warmup = 3;
  return options;
}

TEST(FedSuManager, LinearParameterBecomesPredictable) {
  FedSuManager manager(2, fast_options());
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 2);
  const std::vector<float> slopes{0.125f, 0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  EXPECT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
}

TEST(FedSuManager, SpeculativeRoundsShipNoModelBytes) {
  FedSuManager manager(2, fast_options());
  TrajectoryDriver driver(manager, {0.0f}, 2);
  const std::vector<float> slopes{0.25f};
  // Warm up into speculation.
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  // The very next round is inside the no-checking period... but with
  // initial period 1 it expires immediately, costing 1 error scalar. Track
  // a few rounds: bytes must be far below full sync (4 bytes/param/round).
  std::size_t total_up = 0;
  const int horizon = 10;
  for (int r = 0; r < horizon; ++r) total_up += driver.step(slopes).bytes_up[0];
  EXPECT_LT(total_up, static_cast<std::size_t>(horizon) * 4);
}

TEST(FedSuManager, SpeculativeValueFollowsSlope) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {1.0f}, 1);
  const std::vector<float> slopes{0.5f};
  float before = 0.0f, after = 0.0f;
  for (int r = 0; r < 8; ++r) {
    before = driver.global()[0];
    driver.step(slopes);
    after = driver.global()[0];
  }
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  EXPECT_NEAR(after - before, 0.5f, 1e-5);
}

TEST(FedSuManager, NoCheckPeriodGrowsWhilePatternHolds) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {0.0f}, 1);
  const std::vector<float> slopes{0.125f};
  // Run long enough for several successful checks; count rounds that carry
  // error traffic. Periods 1, 2, 3, ... mean check rounds thin out over
  // time: across R rounds, roughly sqrt(2R) checks.
  int check_rounds = 0;
  int spec_rounds = 0;
  for (int r = 0; r < 40; ++r) {
    const auto result = driver.step(slopes);
    if (manager.predictable_fraction() == 1.0) {
      ++spec_rounds;
      if (result.bytes_up[0] > 0) ++check_rounds;
    }
  }
  EXPECT_GT(spec_rounds, 30);
  EXPECT_LT(check_rounds, 12);
  EXPECT_GT(check_rounds, 2);
}

TEST(FedSuManager, BrokenPatternDemotesAndCorrects) {
  FedSuOptions options = fast_options();
  options.t_s = 1.0;
  FedSuManager manager(1, options);
  TrajectoryDriver driver(manager, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);

  bool demoted = false;
  std::vector<SpecEvent> events;
  manager.set_event_hook([&](const SpecEvent& e) { events.push_back(e); });
  // Reverse the trajectory: prediction error per round = -0.4; S after one
  // round = 0.4/0.1 = 4 > T_S at the next check.
  slopes[0] = -0.375f;
  for (int r = 0; r < 6 && !demoted; ++r) {
    driver.step(slopes);
    demoted = manager.predictable_fraction() == 0.0;
  }
  EXPECT_TRUE(demoted);
  ASSERT_FALSE(events.empty());
  EXPECT_FALSE(events.back().start);
  // Correction: after demotion the global must track the true trajectory
  // again within a couple of synced rounds.
  driver.step(slopes);
  const float global_now = driver.global()[0];
  driver.step(slopes);
  EXPECT_NEAR(driver.global()[0] - global_now, -0.375f, 1e-4);
}

TEST(FedSuManager, ByteAccountingMatchesUnpredictableCount) {
  FedSuManager manager(3, fast_options());
  // Two params: one will go linear, one random.
  util::Rng rng(5);
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 3);
  for (int r = 0; r < 6; ++r) {
    driver.step({0.125f, static_cast<float>(rng.normal())});
  }
  // Param 0 predictable, param 1 not.
  EXPECT_DOUBLE_EQ(manager.predictable_fraction(), 0.5);
  const auto result = driver.step({0.125f, static_cast<float>(rng.normal())});
  // Upload = 1 unpredictable scalar (+1 if the error check expired).
  EXPECT_GE(result.bytes_up[0], 4u);
  EXPECT_LE(result.bytes_up[0], 8u);
  EXPECT_EQ(result.bytes_up.size(), 3u);
  EXPECT_GT(result.scalars_up, 0u);
}

TEST(FedSuManager, SparsificationRatioReflectsMask) {
  FedSuManager manager(1, fast_options());
  std::vector<float> global(10, 0.0f);
  TrajectoryDriver driver(manager, global, 1);
  std::vector<float> slopes(10, 0.0625f);
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  double max_ratio = 0.0;
  for (int r = 0; r < 6; ++r) {
    driver.step(slopes);
    max_ratio = std::max(max_ratio, manager.last_sparsification_ratio());
  }
  EXPECT_GT(max_ratio, 0.85);
}

TEST(FedSuManager, ReplicasStayIdentical) {
  // The correctness precondition of client-side mask maintenance (§V):
  // two managers fed identical global inputs produce identical masks.
  FedSuManager a(2, fast_options());
  FedSuManager b(2, fast_options());
  util::Rng rng(17);
  TrajectoryDriver da(a, {0.0f, 0.0f, 0.0f}, 2, 0.0, 19);
  TrajectoryDriver db(b, {0.0f, 0.0f, 0.0f}, 2, 0.0, 19);
  for (int r = 0; r < 25; ++r) {
    const float wander = static_cast<float>(rng.normal());
    const std::vector<float> slopes{0.125f, wander, (r < 12) ? 0.25f : -0.25f};
    da.step(slopes);
    db.step(slopes);
    ASSERT_EQ(a.predictable_mask(), b.predictable_mask()) << "round " << r;
    ASSERT_EQ(da.global(), db.global()) << "round " << r;
  }
}

TEST(FedSuManager, ClientJoinExtendsAccumulators) {
  FedSuManager manager(2, fast_options());
  std::vector<float> global{0.0f};
  manager.initialize(global);
  EXPECT_THROW(manager.on_client_join(5), std::invalid_argument);
  manager.on_client_join(2);
  // A round with the new client participating must be accepted.
  std::vector<std::vector<float>> states{{0.1f}, {0.1f}, {0.1f}};
  RoundContext ctx;
  ctx.round = 0;
  ctx.participants = {0, 1, 2};
  EXPECT_NO_THROW(manager.synchronize(ctx, views(states)));
}

TEST(FedSuManager, JoinStateBytesCoverMaskAndPeriods) {
  FedSuManager manager(2, fast_options());
  std::vector<float> global(100, 0.0f);
  manager.initialize(global);
  // 100 params: mask ~13 bytes, periods 400, slopes 400.
  EXPECT_GT(manager.join_state_bytes(), 800u);
  EXPECT_LT(manager.join_state_bytes(), 1000u);
}

TEST(FedSuManager, StateBytesScaleLinearly) {
  FedSuManager small(2, fast_options());
  FedSuManager large(2, fast_options());
  std::vector<float> g_small(10, 0.0f), g_large(1000, 0.0f);
  small.initialize(g_small);
  large.initialize(g_large);
  EXPECT_NEAR(static_cast<double>(large.state_bytes()) / small.state_bytes(),
              100.0, 5.0);
}

TEST(FedSuManager, RejectsBadInputs) {
  EXPECT_THROW(FedSuManager(0), std::invalid_argument);
  FedSuOptions bad;
  bad.t_r = 0.0;
  EXPECT_THROW(FedSuManager(1, bad), std::invalid_argument);
  FedSuManager manager(2, fast_options());
  std::vector<float> global{0.0f};
  manager.initialize(global);
  std::vector<std::vector<float>> states{{0.1f, 0.2f}};  // wrong width
  RoundContext ctx = ctx_of(0, 1);
  EXPECT_THROW(manager.synchronize(ctx, views(states)), std::invalid_argument);
  RoundContext bad_ctx = ctx_of(0, 2);
  std::vector<std::vector<float>> one{{0.1f}};
  EXPECT_THROW(manager.synchronize(bad_ctx, views(one)), std::invalid_argument);
  RoundContext oob = ctx_of(0, 1);
  oob.participants[0] = 7;
  EXPECT_THROW(manager.synchronize(oob, views(one)), std::out_of_range);
}

TEST(FedSuManager, FailedRestoreLeavesTheManagerUntouched) {
  // Every strict prefix of a 5-client, 16-parameter snapshot is malformed.
  // Restoring one into a 3-client, 8-parameter manager must throw and leave
  // it byte-identical, still able to synchronize its own cohort.
  FedSuManager source(5, fast_options());
  TrajectoryDriver source_driver(source, std::vector<float>(16, 0.0f), 5,
                                 /*noise=*/0.01);
  for (int r = 0; r < 10; ++r) source_driver.step(std::vector<float>(16, 0.1f));
  ASSERT_GT(source.error_store().allocated_slabs(), 0u);
  const std::vector<std::uint8_t> snapshot = source.snapshot();

  FedSuManager target(3, fast_options());
  TrajectoryDriver target_driver(target, std::vector<float>(8, 1.0f), 3,
                                 /*noise=*/0.01);
  for (int r = 0; r < 6; ++r) target_driver.step(std::vector<float>(8, 0.1f));
  const std::vector<std::uint8_t> before = target.snapshot();
  for (std::size_t cut = 0; cut < snapshot.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(snapshot.begin(),
                                              snapshot.begin() + cut);
    EXPECT_THROW(target.restore(truncated), std::runtime_error) << cut;
    ASSERT_EQ(target.snapshot(), before) << "truncated to " << cut << " bytes";
  }
  target_driver.step(std::vector<float>(8, 0.1f));
  EXPECT_EQ(target.rounds_seen(), 7);
}

TEST(FedSuManager, EventHookSeesStartAndEnd) {
  FedSuManager manager(1, fast_options());
  std::vector<SpecEvent> events;
  manager.set_event_hook([&](const SpecEvent& e) { events.push_back(e); });
  TrajectoryDriver driver(manager, {0.0f}, 1);
  for (int r = 0; r < 6; ++r) driver.step({0.125f});
  for (int r = 0; r < 6; ++r) driver.step({-0.5f});
  ASSERT_GE(events.size(), 2u);
  EXPECT_TRUE(events.front().start);
  bool saw_end = false;
  for (const auto& e : events) saw_end |= !e.start;
  EXPECT_TRUE(saw_end);
}

// Pass 3 clears only demoted columns. That suffices because a column
// outside speculation reads +0.0 in every allocated slab: pass 1 writes
// only predictable columns, a phase ends only by demotion, and slabs start
// zero-filled. Checked after every round under rejoin churn and stale
// (versioned) participants, for every synchronized column and for every
// column promoted that round.
TEST(FedSuManager, SynchronizedAndPromotedColumnsReadZeroInEverySlab) {
  constexpr int kClients = 12;
  constexpr std::size_t kParams = 48;
  FedSuManager manager(kClients, fast_options());
  std::vector<std::size_t> promoted;
  std::size_t promotions = 0, demotions = 0, checked = 0;
  manager.set_event_hook([&](const SpecEvent& e) {
    if (e.start) {
      promoted.push_back(e.param);
    } else {
      ++demotions;
    }
  });
  std::vector<float> global(kParams, 0.0f);
  manager.initialize(global);
  util::Rng rng(31);
  for (int r = 0; r < 80; ++r) {
    if (r % 4 == 3) manager.on_client_rejoin((r * 7) % kClients);
    RoundContext ctx = ctx_of(r, 0);
    const int first = (r * 5) % kClients;
    for (int k = 0; k < 6; ++k) {
      ctx.participants.push_back((first + 2 * k) % kClients);
      // Every third participant trained on a model two versions old.
      ctx.dispatch_rounds.push_back(k % 3 == 0 ? std::max(0, r - 2) : r);
    }
    std::vector<std::vector<float>> states(ctx.participants.size(), global);
    for (auto& state : states) {
      for (std::size_t j = 0; j < kParams; ++j) {
        float slope = 0.0f;
        switch (j % 4) {
          case 0: slope = 0.125f; break;                             // linear
          case 1: slope = (r / 7) % 2 == 0 ? 0.25f : -0.25f; break;  // flips
          case 2: slope = static_cast<float>(rng.normal()); break;   // noise
          case 3: slope = r % 5 == 4 ? 1.0f : 0.05f; break;          // jumps
        }
        state[j] += slope + static_cast<float>(0.01 * rng.normal());
      }
    }
    promoted.clear();
    global = manager.synchronize(ctx, views(states)).new_global;
    promotions += promoted.size();
    const std::vector<std::uint8_t>& mask = manager.predictable_mask();
    for (int c = 0; c < kClients; ++c) {
      const float* slab = manager.error_store().slab(c);
      if (slab == nullptr) continue;
      for (std::size_t j = 0; j < kParams; ++j) {
        if (mask[j]) continue;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(slab[j]), 0u)
            << "round " << r << " client " << c << " synchronized " << j;
      }
      for (const std::size_t j : promoted) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(slab[j]), 0u)
            << "round " << r << " client " << c << " promoted " << j;
        ++checked;
      }
    }
  }
  // The run must reach every path the invariant covers.
  EXPECT_GT(promotions, 10u);
  EXPECT_GT(demotions, 5u);
  EXPECT_GT(checked, 0u);
}

TEST(FedSuManager, LinearRoundsCounterTracksSpeculation) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 1);
  util::Rng rng(23);
  for (int r = 0; r < 20; ++r) {
    driver.step({0.125f, static_cast<float>(rng.normal())});
  }
  EXPECT_GT(manager.linear_rounds()[0], 8);
  // A random walk can dip under T_R by chance for a round or two before the
  // error feedback ejects it; it must stay far below the linear parameter.
  EXPECT_LE(manager.linear_rounds()[1], 3);
  EXPECT_EQ(manager.rounds_seen(), 20);
}

TEST(FedSuV1, FixedPeriodExpiresWithoutErrorTraffic) {
  FedSuV1Options options;
  options.fixed_period = 5;
  options.warmup = 3;
  FedSuV1 proto(options);
  TrajectoryDriver driver(proto, {0.0f}, 1);
  const std::vector<float> slopes{0.125f};
  // Promote.
  int promote_round = -1;
  for (int r = 0; r < 10 && promote_round < 0; ++r) {
    driver.step(slopes);
    if (proto.predictable_fraction() == 1.0) promote_round = r;
  }
  ASSERT_GE(promote_round, 0);
  // During speculation: exactly zero bytes (no error aggregation in v1).
  int zero_byte_rounds = 0;
  for (int r = 0; r < 5; ++r) {
    const auto result = driver.step(slopes);
    if (result.bytes_up[0] == 0) ++zero_byte_rounds;
  }
  EXPECT_GE(zero_byte_rounds, 4);  // period 5, expiry round syncs again
  // After expiry the parameter returns to regular updating.
  EXPECT_DOUBLE_EQ(proto.predictable_fraction(), 0.0);
}

TEST(FedSuV1, NoCorrectionMeansDriftWhenPatternBreaks) {
  FedSuV1Options options;
  options.fixed_period = 8;
  FedSuV1 proto(options);
  TrajectoryDriver driver(proto, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(proto.predictable_fraction(), 1.0);
  // Trajectory reverses; v1 keeps applying +0.1 for the full period.
  slopes[0] = -0.125f;
  float drift_peak = 0.0f;
  float true_value = driver.global()[0];
  for (int r = 0; r < 8; ++r) {
    driver.step(slopes);
    true_value += slopes[0];
    drift_peak = std::max(drift_peak,
                          std::fabs(driver.global()[0] - true_value));
  }
  EXPECT_GT(drift_peak, 0.5f);  // ~0.2 drift per round, uncorrected
}

TEST(FedSuV2, EntryRateMatchesProbability) {
  FedSuV2Options options;
  options.enter_probability = 0.3;
  options.fixed_period = 1000;  // effectively never release
  FedSuV2 proto(options);
  std::vector<float> global(2000, 0.0f);
  TrajectoryDriver driver(proto, global, 1);
  std::vector<float> slopes(2000, 0.1f);
  driver.step(slopes);  // primes prev update; no entries yet
  driver.step(slopes);  // ~30% enter here
  EXPECT_NEAR(proto.predictable_fraction(), 0.3, 0.05);
}

TEST(FedSuV2, ZeroProbabilityNeverSpeculates) {
  FedSuV2Options options;
  options.enter_probability = 0.0;
  FedSuV2 proto(options);
  TrajectoryDriver driver(proto, {0.0f, 0.0f}, 1);
  for (int r = 0; r < 10; ++r) driver.step({0.1f, 0.1f});
  EXPECT_DOUBLE_EQ(proto.predictable_fraction(), 0.0);
}

TEST(FedSuVariants, RejectBadOptions) {
  FedSuV1Options v1;
  v1.fixed_period = 0;
  EXPECT_THROW(FedSuV1{v1}, std::invalid_argument);
  FedSuV2Options v2;
  v2.enter_probability = 2.0;
  EXPECT_THROW(FedSuV2{v2}, std::invalid_argument);
}

// A 40-client cohort (two reduction blocks). Even parameters drift exactly
// linearly from `global`; odd ones are fresh noise plus a cancelling
// +/-2^40 pair in rows 0 and 33, so a flat 40-row chain and the block tree
// round to different means.
std::vector<std::vector<float>> two_block_cohort(
    const std::vector<float>& global, util::Rng& rng) {
  std::vector<std::vector<float>> rows(40, global);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < global.size(); ++j) {
      if (j % 2 == 0) {
        rows[i][j] += 0.125f;
      } else if (i == 0 || i == 33) {
        rows[i][j] = i == 0 ? 0x1p40f : -0x1p40f;
      } else {
        rows[i][j] = static_cast<float>(rng.normal());
      }
    }
  }
  return rows;
}

TEST(FedSuVariants, FoldUnmaskedColumnsLikeColumnSumsBeyondOneBlock) {
  // Past util::kReduceClientBlock clients FedSU-v1/v2 average in the shared
  // block tree (DESIGN.md §5b rule 5): bitwise the same at 1 and 4 threads,
  // and equal to util::column_sums over the same cohort.
  constexpr std::size_t kParams = 16;
  const auto inv_n = 1.0 / 40.0;
  {
    util::Rng rng(3);
    const auto rows = two_block_cohort(std::vector<float>(kParams, 0.0f), rng);
    std::vector<double> sums(kParams);
    util::column_sums(views(rows), sums, nullptr);
    bool flat_differs = false;
    for (std::size_t j = 1; j < kParams; j += 2) {
      double flat = 0.0;
      for (const auto& row : rows) flat += row[j];
      flat_differs |= static_cast<float>(flat * inv_n) !=
                      static_cast<float>(sums[j] * inv_n);
    }
    ASSERT_TRUE(flat_differs) << "cohort never tells a flat fold from the tree";
  }

  FedSuV1Options v1;
  v1.warmup = 3;
  v1.fixed_period = 4;
  v1.t_r = 1e-6;  // only the exactly linear (even) parameters speculate
  FedSuV2Options v2;
  v2.enter_probability = 0.3;
  v2.fixed_period = 3;
  for (const bool second : {false, true}) {
    std::vector<std::vector<float>> reference;
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      std::unique_ptr<compress::SyncProtocol> proto;
      if (second) {
        proto = std::make_unique<FedSuV2>(v2);
      } else {
        proto = std::make_unique<FedSuV1>(v1);
      }
      std::vector<float> global(kParams, 0.0f);
      proto->initialize(global);
      util::Rng rng(5);
      std::vector<std::vector<float>> trace;
      bool speculated = false;
      for (int r = 0; r < 12; ++r) {
        const auto rows = two_block_cohort(global, rng);
        std::vector<double> sums(kParams);
        util::column_sums(views(rows), sums, nullptr);
        const SyncResult result =
            proto->synchronize(ctx_of(r, 40, global), views(rows));
        speculated |= result.bytes_up[0] < kParams * sizeof(float);
        for (std::size_t j = 0; j < kParams; ++j) {
          // Nothing speculates in round 0; v1 never speculates on noise.
          if (r > 0 && (second || j % 2 == 0)) continue;
          ASSERT_EQ(result.new_global[j], static_cast<float>(sums[j] * inv_n))
              << proto->name() << " round " << r << " param " << j;
        }
        global = result.new_global;
        trace.push_back(global);
      }
      EXPECT_TRUE(speculated) << proto->name();
      if (reference.empty()) {
        reference = trace;
      } else {
        for (std::size_t r = 0; r < trace.size(); ++r) {
          ASSERT_EQ(std::memcmp(trace[r].data(), reference[r].data(),
                                kParams * sizeof(float)),
                    0)
              << proto->name() << " round " << r << " threads " << threads;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(0);
}

// Property sweep over T_S: tighter thresholds demote earlier (or equally)
// when the pattern breaks.
class FedSuTsSweep : public ::testing::TestWithParam<double> {};

TEST_P(FedSuTsSweep, TighterThresholdDemotesSooner) {
  FedSuOptions options = fast_options();
  options.t_s = GetParam();
  FedSuManager manager(1, options);
  TrajectoryDriver driver(manager, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  if (manager.predictable_fraction() < 1.0) GTEST_SKIP();
  slopes[0] = 0.0f;  // pattern becomes stagnation: error 0.1/round
  int rounds_to_demote = 0;
  for (int r = 0; r < 60 && manager.predictable_fraction() > 0.0; ++r) {
    driver.step(slopes);
    ++rounds_to_demote;
  }
  if (GetParam() <= 1.0) {
    EXPECT_LE(rounds_to_demote, 5);
  } else {
    EXPECT_GT(rounds_to_demote, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FedSuTsSweep,
                         ::testing::Values(0.1, 1.0, 10.0));

}  // namespace
}  // namespace fedsu::core

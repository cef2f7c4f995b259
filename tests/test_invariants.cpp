// Cross-cutting algorithm invariants — properties the paper's analysis
// (§IV-C, §IV-D) relies on, checked against the actual implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "compress/apf.h"
#include "compress/fedavg.h"
#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "io/serialize.h"
#include "util/rng.h"

namespace fedsu {
namespace {

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

// `global` is the model the participants started from: the caller tracks
// it across rounds (FedAvg and FedSU run without it).
compress::RoundContext ctx_of(int round, int n,
                              std::span<const float> global = {}) {
  compress::RoundContext ctx;
  ctx.round = round;
  ctx.global = global;
  for (int i = 0; i < n; ++i) ctx.participants.push_back(i);
  return ctx;
}

// INVARIANT (Eq. 3 / Eq. 7): while a parameter stays speculative, its
// deviation from the true (would-be synchronized) trajectory is bounded —
// the accumulated error cannot exceed T_S * |slope| by more than one
// no-checking period's worth of drift before the parameter is ejected.
TEST(Invariants, FedSuDeviationStaysBounded) {
  core::FedSuOptions options;
  options.warmup = 3;
  options.t_s = 2.0;
  options.initial_no_check = 2;
  core::FedSuManager manager(1, options);
  std::vector<float> global{0.0f};
  manager.initialize(global);

  util::Rng rng(13);
  const float slope = 0.125f;
  double true_value = 0.0;
  float manager_value = 0.0f;
  double steady_deviation = 0.0;   // while the pattern genuinely holds
  double transient_deviation = 0.0;  // across the slope flip
  double final_deviation = 0.0;
  // Linear trajectory with mild noise, then a slope flip at round 40. Three
  // claims: (a) while the pattern holds, deviation stays ~T_S * |slope|;
  // (b) at the flip, drift is bounded by one no-checking period's worth of
  // slope error (periods have grown to ~8 by round 40 -> |drift| <= ~2.5);
  // (c) the correction snaps the value back, so the run ENDS near the true
  // trajectory (v1 without feedback would drift without bound).
  for (int r = 0; r < 80; ++r) {
    const float current_slope = (r < 40) ? slope : -slope;
    true_value += current_slope;
    const float noise = static_cast<float>(0.01 * rng.normal());
    std::vector<std::vector<float>> states{{manager_value + current_slope +
                                            noise}};
    compress::RoundContext ctx = ctx_of(r, 1);
    manager_value = manager.synchronize(ctx, views(states)).new_global[0];
    const double dev =
        std::fabs(static_cast<double>(manager_value) - true_value);
    if (r < 40) steady_deviation = std::max(steady_deviation, dev);
    transient_deviation = std::max(transient_deviation, dev);
    if (r == 79) final_deviation = dev;
  }
  EXPECT_LT(steady_deviation, 0.3);      // ~T_S * |slope| = 0.25
  EXPECT_LT(transient_deviation, 2.6);   // one grown period of wrong slope
  EXPECT_LT(final_deviation, 0.3);       // correction rejoined the trajectory
}

// INVARIANT: FedAvg's aggregation is exactly the arithmetic mean — the
// contract all other schemes' deltas are measured against.
TEST(Invariants, FedAvgIsExactMean) {
  compress::FedAvg proto;
  util::Rng rng(7);
  std::vector<float> global(64, 0.0f);
  proto.initialize(global);
  std::vector<std::vector<float>> states(5, std::vector<float>(64));
  for (auto& s : states) {
    for (auto& v : s) v = static_cast<float>(rng.normal());
  }
  const auto result = proto.synchronize(ctx_of(0, 5), views(states));
  for (std::size_t j = 0; j < 64; ++j) {
    double mean = 0.0;
    for (const auto& s : states) mean += s[j];
    mean /= 5.0;
    EXPECT_NEAR(result.new_global[j], mean, 1e-6);
  }
}

// INVARIANT: every protocol returns byte vectors sized to the participant
// count and a global state of unchanged dimension, for any participant
// subset (the simulator's earliest-70% selection varies per round).
TEST(Invariants, ProtocolsHandleVaryingParticipantSubsets) {
  util::Rng rng(21);
  for (const auto& name : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = 6;
    auto proto = fl::make_protocol(config);
    std::vector<float> global(32, 0.0f);
    proto->initialize(global);
    for (int round = 0; round < 6; ++round) {
      // Rotate through subsets of size 2..5 of distinct ids with varying
      // membership (and, once the rotation wraps, not ascending).
      const int n = 2 + round % 4;
      compress::RoundContext ctx = ctx_of(round, 0, global);
      std::vector<std::vector<float>> states;
      for (int i = 0; i < n; ++i) {
        ctx.participants.push_back((round + i) % 6);
        std::vector<float> s(32);
        for (auto& v : s) v = static_cast<float>(0.1 * rng.normal());
        states.push_back(std::move(s));
      }
      const auto result = proto->synchronize(ctx, views(states));
      ASSERT_EQ(result.new_global.size(), 32u) << name;
      ASSERT_EQ(result.bytes_up.size(), static_cast<std::size_t>(n)) << name;
      ASSERT_EQ(result.bytes_down.size(), static_cast<std::size_t>(n)) << name;
      global = result.new_global;
    }
  }
}

// INVARIANT: a round lists each participant once. A repeated id would hand
// one client's residual or error slab to two per-client tasks, so every
// protocol rejects it with std::invalid_argument before touching any state.
TEST(Invariants, EveryProtocolRejectsDuplicateParticipants) {
  const std::size_t p = 16;
  for (const auto& name : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = 4;
    auto proto = fl::make_protocol(config);
    std::vector<float> global(p, 0.0f);
    proto->initialize(global);
    std::vector<std::vector<float>> states;
    for (int i = 0; i < 3; ++i) {
      states.emplace_back(p, 0.1f * static_cast<float>(i + 1));
    }
    // One clean round first, so stateful protocols have state to protect.
    global = proto->synchronize(ctx_of(0, 3, global), views(states)).new_global;
    const std::vector<std::uint8_t> before = proto->snapshot();
    for (const std::vector<int>& ids :
         {std::vector<int>{1, 1, 3}, std::vector<int>{3, 0, 3}}) {
      compress::RoundContext ctx = ctx_of(1, 0, global);
      ctx.participants = ids;
      EXPECT_THROW(proto->synchronize(ctx, views(states)),
                   std::invalid_argument)
          << name << " accepted a repeated participant id";
      EXPECT_EQ(proto->snapshot(), before) << name;
    }
  }
}

// INVARIANT: every protocol enforces one input contract before it reads a
// state — one entry short or one entry long is std::invalid_argument, never
// an out-of-bounds read — and a protocol that reads ctx.global rejects a
// call that forgot to set it.
TEST(Invariants, EveryProtocolRejectsMisshapenInputs) {
  const std::size_t p = 16;
  for (const auto& name : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = 2;
    auto proto = fl::make_protocol(config);
    const std::vector<float> global(p, 0.0f);
    proto->initialize(global);
    const std::vector<float> good(p, 0.1f);
    for (const std::size_t size : {p - 1, p + 1}) {
      std::vector<std::vector<float>> states{good, std::vector<float>(size)};
      EXPECT_THROW(proto->synchronize(ctx_of(0, 2, global), views(states)),
                   std::invalid_argument)
          << name << " accepted a state of " << size << " entries";
    }
    std::vector<std::vector<float>> states{good, good};
    const bool reads_global = name != "fedavg" && name != "fedsu";
    if (reads_global) {
      EXPECT_THROW(proto->synchronize(ctx_of(0, 2), views(states)),
                   std::invalid_argument)
          << name << " ran without ctx.global";
    }
    EXPECT_NO_THROW(proto->synchronize(ctx_of(0, 2, global), views(states)))
        << name;
  }
}

// A protocol from the factory after 8 rounds over `p` parameters and `n`
// clients, so every stateful one has state; `global` tracks the model.
std::unique_ptr<compress::SyncProtocol> warmed_protocol(
    const std::string& name, std::size_t p, int n, std::vector<float>& global) {
  fl::ProtocolConfig config;
  config.name = name;
  config.num_clients = n;
  auto proto = fl::make_protocol(config);
  global.assign(p, 0.0f);
  proto->initialize(global);
  util::Rng rng(41);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<float>> states(n, global);
    for (auto& s : states) {
      for (std::size_t j = 0; j < p; ++j) {
        s[j] += j % 2 == 0 ? 0.125f : static_cast<float>(0.1 * rng.normal());
      }
    }
    global = proto->synchronize(ctx_of(round, n, global), views(states))
                 .new_global;
  }
  return proto;
}

// INVARIANT: each protocol has one serializer. serialize() writes the same
// bytes as its standalone snapshot() into a writer that holds other bytes
// around them (a run checkpoint's protocol section) and counts them exactly
// in a counting writer, and deserialize() from a view of them inside that
// buffer restores a protocol that snapshots and continues identically.
TEST(Invariants, EveryProtocolWritesAndReadsItsStateInPlace) {
  const std::size_t p = 24;
  const int n = 4;
  for (const auto& name : fl::known_protocols()) {
    std::vector<float> global;
    auto proto = warmed_protocol(name, p, n, global);
    const std::vector<std::uint8_t> standalone = proto->snapshot();

    io::BinaryWriter counter = io::BinaryWriter::counter();
    proto->serialize(counter);
    EXPECT_EQ(counter.size(), standalone.size()) << name;

    std::vector<std::uint8_t> frame = {0xAA, 0xBB};
    io::BinaryWriter writer(frame);
    const std::size_t at = writer.begin_length();
    proto->serialize(writer);
    writer.end_length(at);
    writer.write_u32(0xC0FFEE);
    ASSERT_EQ(frame.size(), 2 + 8 + standalone.size() + 4) << name;
    EXPECT_TRUE(std::equal(standalone.begin(), standalone.end(),
                           frame.begin() + 10))
        << name;

    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = n;
    auto restored = fl::make_protocol(config);
    restored->initialize(std::vector<float>(p, 0.0f));
    io::BinaryReader reader(std::span<const std::uint8_t>(frame).subspan(2));
    io::BinaryReader section = reader.read_section();
    restored->deserialize(section);
    EXPECT_TRUE(section.at_end()) << name;
    EXPECT_EQ(reader.read_u32(), 0xC0FFEEu) << name;
    EXPECT_EQ(restored->snapshot(), standalone) << name;

    util::Rng rng(43);
    for (int round = 8; round < 11; ++round) {
      std::vector<std::vector<float>> states(n, global);
      for (auto& s : states) {
        for (auto& v : s) v += static_cast<float>(0.1 * rng.normal());
      }
      const auto a = proto->synchronize(ctx_of(round, n, global), views(states));
      const auto b =
          restored->synchronize(ctx_of(round, n, global), views(states));
      ASSERT_EQ(a.new_global, b.new_global) << name << " round " << round;
      ASSERT_EQ(a.bytes_up, b.bytes_up) << name << " round " << round;
      global = a.new_global;
    }
    EXPECT_EQ(restored->snapshot(), proto->snapshot()) << name;
  }
}

// Offset of an oscillation tracker's serialized header — f64 decay, i32
// warmup, then the u64 length of its first vector — in `bytes`, or npos.
std::size_t find_tracker(const std::vector<std::uint8_t>& bytes,
                         double decay, std::int32_t warmup,
                         std::uint64_t params) {
  io::BinaryWriter header;
  header.write_f64(decay);
  header.write_i32(warmup);
  header.write_u64(params);
  const auto& needle = header.buffer();
  const auto it =
      std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
  return it == bytes.end() ? std::string::npos
                           : static_cast<std::size_t>(it - bytes.begin());
}

// INVARIANT: a restore that throws leaves the protocol exactly as it was.
// Every strict prefix of a warmed snapshot is malformed, and so are the
// snapshot followed by one more byte and a snapshot whose oscillation
// tracker claims a NaN decay or a zero warmup (a tracker restored with
// either would never promote again).
TEST(Invariants, EveryProtocolRestoreIsAllOrNothing) {
  const std::size_t p = 24;
  const int n = 4;
  std::vector<std::string> carriers;
  const fl::ProtocolConfig config;  // the trackers' default options
  for (const auto& name : fl::known_protocols()) {
    std::vector<float> global;
    auto proto = warmed_protocol(name, p, n, global);
    const std::vector<std::uint8_t> before = proto->snapshot();
    auto expect_rejected = [&](const std::vector<std::uint8_t>& bytes,
                               const std::string& what) {
      EXPECT_THROW(proto->restore(bytes), std::runtime_error)
          << name << ": " << what;
      ASSERT_EQ(proto->snapshot(), before) << name << ": " << what;
    };
    for (std::size_t cut = 0; cut < before.size(); ++cut) {
      expect_rejected({before.begin(), before.begin() + cut},
                      "truncated to " + std::to_string(cut) + " bytes");
    }
    if (!before.empty()) {
      std::vector<std::uint8_t> padded = before;
      padded.push_back(0);
      expect_rejected(padded, "a byte past the state");
    }
    for (const auto& [decay, warmup] :
         {std::pair{config.fedsu.ema_decay, config.fedsu.warmup},
          std::pair{config.fedsu_v1.ema_decay, config.fedsu_v1.warmup}}) {
      const std::size_t at = find_tracker(before, decay, warmup, p);
      if (at == std::string::npos) continue;
      carriers.push_back(name);
      std::vector<std::uint8_t> nan_decay = before;
      const double nan = std::nan("");
      std::memcpy(nan_decay.data() + at, &nan, sizeof(nan));
      expect_rejected(nan_decay, "tracker decay NaN");
      std::vector<std::uint8_t> zero_warmup = before;
      std::memset(zero_warmup.data() + at + sizeof(double), 0,
                  sizeof(std::int32_t));
      expect_rejected(zero_warmup, "tracker warmup 0");
      break;
    }
  }
  for (const std::string carrier : {"fedsu", "fedsu-v1"}) {
    EXPECT_NE(std::find(carriers.begin(), carriers.end(), carrier),
              carriers.end())
        << carrier << "'s snapshot shows no tracker header";
  }
}

// INVARIANT: sparsification ratios are in [0, 1] for every protocol on
// every round.
TEST(Invariants, SparsificationRatioInUnitInterval) {
  util::Rng rng(22);
  for (const auto& name : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = name;
    config.num_clients = 3;
    auto proto = fl::make_protocol(config);
    std::vector<float> global(16, 0.0f);
    proto->initialize(global);
    std::vector<float> state(16, 0.0f);
    for (int round = 0; round < 15; ++round) {
      for (auto& v : state) v += 0.125f + static_cast<float>(0.01 * rng.normal());
      std::vector<std::vector<float>> states{state, state, state};
      global = proto->synchronize(ctx_of(round, 3, global), views(states))
                   .new_global;
      const double ratio = proto->last_sparsification_ratio();
      EXPECT_GE(ratio, 0.0) << name << " round " << round;
      EXPECT_LE(ratio, 1.0) << name << " round " << round;
    }
  }
}

// INVARIANT: APF freezing never changes a frozen value — frozen parameters
// hold exactly still between syncs (they are excluded from updates).
TEST(Invariants, ApfFrozenValuesHoldStill) {
  compress::ApfOptions options;
  options.warmup_rounds = 1;
  options.ema_decay = 0.98;
  compress::Apf proto(options);
  std::vector<float> global{0.0f};
  proto.initialize(global);
  float prev = 0.0f;
  for (int r = 0; r < 40; ++r) {
    const float zigzag = (r % 2 == 0) ? 0.1f : -0.1f;
    std::vector<std::vector<float>> states{{zigzag}};
    const auto result = proto.synchronize(ctx_of(r, 1, global), views(states));
    if (result.bytes_up[0] == 0) {
      EXPECT_EQ(result.new_global[0], prev) << "frozen value moved at " << r;
    }
    prev = result.new_global[0];
    global = result.new_global;
  }
}

// INVARIANT: FedSU byte accounting equals scalars * 4 per client, and the
// dense-sync cost is an upper bound in every round.
TEST(Invariants, FedSuNeverCostsMoreThanFedAvg) {
  core::FedSuOptions options;
  options.warmup = 3;
  core::FedSuManager manager(2, options);
  const std::size_t p = 50;
  std::vector<float> global(p, 0.0f);
  manager.initialize(global);
  util::Rng rng(31);
  std::vector<float> state(p, 0.0f);
  for (int r = 0; r < 40; ++r) {
    for (std::size_t j = 0; j < p; ++j) {
      state[j] += (j % 2 == 0) ? 0.125f
                               : static_cast<float>(0.05 * rng.normal());
    }
    std::vector<std::vector<float>> states{state, state};
    const auto result = manager.synchronize(ctx_of(r, 2), views(states));
    // Upper bound: dense sync ships p scalars; FedSU ships unpredictable +
    // expiring, and a parameter is never both in one round.
    EXPECT_LE(result.bytes_up[0], p * sizeof(float));
    const auto& diag = manager.last_round_diagnostics();
    EXPECT_EQ(result.bytes_up[0],
              (diag.unpredictable + diag.expiring) * sizeof(float));
  }
}

}  // namespace
}  // namespace fedsu

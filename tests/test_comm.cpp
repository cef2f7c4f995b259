// Communication-path overhaul (DESIGN.md §15): the measure/encode split,
// the payload-audit mode, §5b bitwise identity of every parallelized
// protocol across thread counts, the sparse Top-K residual store against a
// dense reference (including rejoin slab release and the ±0.0 edge), the
// Top-K snapshot round-trip and its all-or-nothing restore, and the
// steady-state allocation budget of the Top-K round loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "compress/protocol.h"
#include "compress/topk.h"
#include "compress/wire.h"
#include "fl/protocol_factory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Counts every global operator new so the steady-state Top-K round can be
// shown to allocate nothing beyond its returned SyncResult vectors.
// Sanitizer builds replace the allocator themselves, so the interposer is
// compiled out there (test_nn_step.cpp idiom).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FEDSU_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FEDSU_SANITIZED 1
#endif
#endif
#ifndef FEDSU_SANITIZED
#define FEDSU_COUNT_ALLOCS 1
#endif

#ifdef FEDSU_COUNT_ALLOCS
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FEDSU_COUNT_ALLOCS

namespace fedsu::compress {
namespace {

// --- measure_* == encode_*().size(), exhaustively over edge shapes -------

TEST(WireSizing, DenseMatchesEncoder) {
  for (std::size_t count = 0; count <= 65; ++count) {
    std::vector<float> values(count, 0.5f);
    EXPECT_EQ(wire::measure_dense(count), wire::encode_dense(values).size())
        << "count=" << count;
  }
  std::vector<float> big(100000, 1.0f);
  EXPECT_EQ(wire::measure_dense(big.size()), wire::encode_dense(big).size());
}

TEST(WireSizing, SparseMatchesEncoder) {
  for (std::size_t count = 0; count <= 65; ++count) {
    std::vector<std::uint32_t> indices(count);
    std::vector<float> values(count, -2.0f);
    for (std::size_t i = 0; i < count; ++i) {
      indices[i] = static_cast<std::uint32_t>(i);
    }
    EXPECT_EQ(wire::measure_sparse(count),
              wire::encode_sparse(indices, values).size())
        << "count=" << count;
  }
}

TEST(WireSizing, SignsMatchesEncoder) {
  // Straddles every byte boundary: 0..65 covers counts {8k-1, 8k, 8k+1}.
  for (std::size_t count = 0; count <= 65; ++count) {
    std::vector<std::uint8_t> signs(count, 1);
    EXPECT_EQ(wire::measure_signs(count),
              wire::encode_signs(signs, 0.25f).size())
        << "count=" << count;
  }
}

TEST(WireSizing, QuantizedMatchesEncoderForEveryBitWidth) {
  for (int bits = 1; bits <= 16; ++bits) {
    const std::int32_t max_level = (1 << (bits - 1)) - 1;
    for (std::size_t count = 0; count <= 33; ++count) {
      std::vector<std::int32_t> levels(count, max_level);
      EXPECT_EQ(wire::measure_quantized(count, bits),
                wire::encode_quantized(levels, bits, 1.5f).size())
          << "bits=" << bits << " count=" << count;
    }
  }
}

// --- payload audit -------------------------------------------------------

// Restores the audit flag even when an assertion fails mid-test.
struct AuditGuard {
  explicit AuditGuard(bool enabled) { wire::set_payload_audit(enabled); }
  ~AuditGuard() { wire::set_payload_audit(false); }
};

TEST(PayloadAudit, MismatchThrows) {
  EXPECT_NO_THROW(wire::audit_bytes("x", 8, 8));
  EXPECT_THROW(wire::audit_bytes("x", 8, 12), std::logic_error);
}

std::vector<std::vector<float>> random_states(std::size_t n, std::size_t p,
                                              const util::Rng& round_rng) {
  std::vector<std::vector<float>> states(n, std::vector<float>(p));
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng rng = round_rng.fork(i + 1);
    for (std::size_t j = 0; j < p; ++j) {
      states[i][j] = static_cast<float>(rng.normal() * 0.1);
    }
  }
  return states;
}

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  v.reserve(states.size());
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

// `global` is the model the participants started from; the caller tracks
// it across rounds (the protocols keep no copy of it).
RoundContext ctx_of(int round, int n, std::span<const float> global) {
  RoundContext ctx;
  ctx.round = round;
  ctx.global = global;
  for (int i = 0; i < n; ++i) ctx.participants.push_back(i);
  return ctx;
}

// With auditing on, every protocol re-encodes its representative payloads
// and cross-checks them against the measured sizes each round; any drift
// between the measure_* formulas and the encoders throws out of here.
TEST(PayloadAudit, EveryProtocolMeasuresItsEncodedSize) {
  const AuditGuard guard(true);
  const int n = 5;
  const std::size_t p = 97;  // odd size: exercises the sub-byte tails
  const util::Rng base(7);
  for (const std::string& scheme : fl::known_protocols()) {
    fl::ProtocolConfig config;
    config.name = scheme;
    config.num_clients = n;
    auto protocol = fl::make_protocol(config);
    std::vector<float> global(p, 0.0f);
    protocol->initialize(global);
    for (int round = 0; round < 4; ++round) {
      const auto states = random_states(n, p, base.fork(round + 1));
      EXPECT_NO_THROW(global = protocol
                                   ->synchronize(ctx_of(round, n, global),
                                                 views(states))
                                   .new_global)
          << scheme << " round " << round;
    }
  }
}

// --- §5b: bitwise identity across thread counts --------------------------

struct RunTrace {
  std::vector<std::vector<float>> globals;
  std::vector<std::size_t> bytes_up, bytes_down, scalars_up, scalars_down;
};

RunTrace run_protocol(const std::string& scheme, int n, std::size_t p,
                      int rounds) {
  fl::ProtocolConfig config;
  config.name = scheme;
  config.num_clients = n;
  auto protocol = fl::make_protocol(config);
  std::vector<float> global(p, 0.0f);
  protocol->initialize(global);
  RunTrace trace;
  const util::Rng base(11);
  for (int round = 0; round < rounds; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    const auto result =
        protocol->synchronize(ctx_of(round, n, global), views(states));
    global = result.new_global;
    trace.globals.push_back(result.new_global);
    trace.bytes_up.push_back(result.bytes_up[0]);
    trace.bytes_down.push_back(result.bytes_down[0]);
    trace.scalars_up.push_back(result.scalars_up);
    trace.scalars_down.push_back(result.scalars_down);
  }
  return trace;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(ThreadInvariance, EveryProtocolBitwiseAcrossThreadCounts) {
  // 40 clients spans two 32-wide reduction blocks; 514 parameters is not a
  // multiple of any chunking grain.
  const int n = 40;
  const std::size_t p = 514;
  const int rounds = 3;
  for (const std::string& scheme : fl::known_protocols()) {
    util::ThreadPool::set_global_threads(1);
    const RunTrace serial = run_protocol(scheme, n, p, rounds);
    for (int threads : {4, 8}) {
      util::ThreadPool::set_global_threads(threads);
      const RunTrace parallel = run_protocol(scheme, n, p, rounds);
      for (int r = 0; r < rounds; ++r) {
        expect_bitwise(serial.globals[r], parallel.globals[r]);
      }
      EXPECT_EQ(serial.bytes_up, parallel.bytes_up) << scheme;
      EXPECT_EQ(serial.bytes_down, parallel.bytes_down) << scheme;
      EXPECT_EQ(serial.scalars_up, parallel.scalars_up) << scheme;
      EXPECT_EQ(serial.scalars_down, parallel.scalars_down) << scheme;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

// --- sparse residual store vs the dense reference ------------------------

// The pre-overhaul Top-K server: one dense residual vector per client,
// allocated up front. Selection and aggregation follow the same
// threshold-then-scan rule as the production path so the only difference
// under test is the residual representation.
class DenseTopKRef {
 public:
  DenseTopKRef(int n, std::size_t p, double fraction)
      : fraction_(fraction), global_(p, 0.0f),
        residual_(static_cast<std::size_t>(n), std::vector<float>(p, 0.0f)) {}

  void initialize(std::span<const float> global) {
    global_.assign(global.begin(), global.end());
  }

  void clear_residual(int client) {
    std::fill(residual_[static_cast<std::size_t>(client)].begin(),
              residual_[static_cast<std::size_t>(client)].end(), 0.0f);
  }

  std::vector<float> step(const std::vector<std::span<const float>>& states) {
    const std::size_t p = global_.size();
    const std::size_t n = states.size();
    const std::size_t k = std::min(
        p, std::max<std::size_t>(
               1, static_cast<std::size_t>(
                      std::llround(fraction_ * static_cast<double>(p)))));
    std::vector<double> agg(p, 0.0);
    std::vector<char> touched(p, 0);
    std::vector<float> comp(p), mags(p);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float>& res = residual_[i];
      for (std::size_t j = 0; j < p; ++j) {
        comp[j] = (states[i][j] - global_[j]) + res[j];
      }
      for (std::size_t j = 0; j < p; ++j) mags[j] = std::fabs(comp[j]);
      std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                       std::greater<float>());
      const float threshold = mags[k - 1];
      // The production two-scan rule: strictly-above first, then ties at
      // the threshold by ascending index until k entries are taken.
      std::vector<std::uint32_t> idx;
      idx.reserve(k);
      for (std::size_t j = 0; j < p; ++j) {
        if (std::fabs(comp[j]) > threshold) {
          idx.push_back(static_cast<std::uint32_t>(j));
        }
      }
      for (std::size_t j = 0; j < p && idx.size() < k; ++j) {
        if (std::fabs(comp[j]) == threshold) {
          idx.push_back(static_cast<std::uint32_t>(j));
        }
      }
      res = comp;
      for (const std::uint32_t j : idx) {
        agg[j] += comp[j];
        touched[j] = 1;
        res[j] = 0.0f;
      }
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < p; ++j) {
      if (touched[j]) {
        global_[j] = static_cast<float>(global_[j] + agg[j] * inv_n);
      }
    }
    return global_;
  }

  const std::vector<float>& residual(int client) const {
    return residual_[static_cast<std::size_t>(client)];
  }

 private:
  double fraction_;
  std::vector<float> global_;
  std::vector<std::vector<float>> residual_;
};

TEST(SparseResidual, MatchesDenseReferenceOverRounds) {
  const int n = 6;
  const std::size_t p = 128;
  const double fraction = 0.1;
  TopK sparse(n, {fraction});
  DenseTopKRef dense(n, p, fraction);
  std::vector<float> global(p, 0.0f);
  sparse.initialize(global);
  dense.initialize(global);
  const util::Rng base(23);
  for (int round = 0; round < 5; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    const auto result =
        sparse.synchronize(ctx_of(round, n, global), views(states));
    const auto ref_global = dense.step(views(states));
    expect_bitwise(result.new_global, ref_global);
    global = result.new_global;
  }
  // Continuous random data leaves every client with residual mass, so every
  // slab is resident — sparsity comes from churn, not from the data.
  EXPECT_EQ(sparse.resident_residual_slabs(), static_cast<std::size_t>(n));
}

TEST(SparseResidual, RejoinReleasesSlabAndMatchesZeroedReference) {
  const int n = 4;
  const std::size_t p = 96;
  const double fraction = 0.15;
  TopK sparse(n, {fraction});
  DenseTopKRef dense(n, p, fraction);
  std::vector<float> global(p, 0.0f);
  sparse.initialize(global);
  dense.initialize(global);
  const util::Rng base(31);
  for (int round = 0; round < 3; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    global = sparse.synchronize(ctx_of(round, n, global), views(states))
                 .new_global;
    dense.step(views(states));
  }
  ASSERT_EQ(sparse.resident_residual_slabs(), static_cast<std::size_t>(n));
  // Client 2 rejoins after a crash: its slab is released (stale error
  // feedback), which the dense world models as zeroing the residual.
  EXPECT_EQ(sparse.on_client_rejoin(2), 0u);
  EXPECT_EQ(sparse.resident_residual_slabs(), static_cast<std::size_t>(n - 1));
  dense.clear_residual(2);
  for (int round = 3; round < 6; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    const auto result =
        sparse.synchronize(ctx_of(round, n, global), views(states));
    const auto ref_global = dense.step(views(states));
    expect_bitwise(result.new_global, ref_global);
    global = result.new_global;
  }
}

TEST(SparseResidual, NegativeZeroResidualStaysSlabless) {
  // comp = {1, -0.0, 0, 0}: index 0 is selected (k = 1), and the leftover
  // mass is all ±0.0 — representable by an absent slab, bit-identically to
  // a dense zero vector in every later compensation (x + ±0.0 never changes
  // a later update).
  TopK sparse(1, {0.25});
  std::vector<float> global{0.0f, 0.0f, 0.0f, 0.0f};
  sparse.initialize(global);
  std::vector<std::vector<float>> states{{1.0f, -0.0f, 0.0f, 0.0f}};
  const auto result = sparse.synchronize(ctx_of(0, 1, global), views(states));
  EXPECT_EQ(sparse.resident_residual_slabs(), 0u);
  EXPECT_FLOAT_EQ(result.new_global[0], 1.0f);
  // A later round with real leftover mass materializes the slab.
  states[0] = {2.0f, 0.5f, 0.0f, 0.0f};
  sparse.synchronize(ctx_of(1, 1, result.new_global), views(states));
  EXPECT_EQ(sparse.resident_residual_slabs(), 1u);
}

TEST(SparseResidual, SnapshotRestoreRoundTrip) {
  const int n = 5;
  const std::size_t p = 64;
  TopK original(n, {0.2});
  std::vector<float> global(p, 0.0f);
  original.initialize(global);
  const util::Rng base(41);
  for (int round = 0; round < 3; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    global = original.synchronize(ctx_of(round, n, global), views(states))
                 .new_global;
  }
  const auto snap = original.snapshot();

  TopK restored(n, {0.2});
  restored.initialize(std::vector<float>(p, 0.0f));
  restored.restore(snap);
  EXPECT_EQ(restored.resident_residual_slabs(),
            original.resident_residual_slabs());
  for (int round = 3; round < 5; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    const auto a = original.synchronize(ctx_of(round, n, global), views(states));
    const auto b = restored.synchronize(ctx_of(round, n, global), views(states));
    expect_bitwise(a.new_global, b.new_global);
    global = a.new_global;
  }
}

// Drives a TopK of the given shape through three rounds, so its residual
// slabs are resident and its snapshot carries real state.
TopK warmed_topk(int n, std::size_t p, std::uint64_t seed) {
  TopK topk(n, {0.2});
  std::vector<float> global(p, 0.0f);
  topk.initialize(global);
  const util::Rng base(seed);
  for (int round = 0; round < 3; ++round) {
    const auto states =
        random_states(static_cast<std::size_t>(n), p, base.fork(round + 1));
    global = topk.synchronize(ctx_of(round, n, global), views(states))
                 .new_global;
  }
  return topk;
}

TEST(SparseResidual, RestoreIsAllOrNothing) {
  const std::vector<std::uint8_t> snap = warmed_topk(5, 16, 61).snapshot();
  // Targets with live state of their own: the snapshot's shape, and a
  // smaller cohort over a smaller model. Every truncation must throw and
  // leave the target exactly as it was.
  for (const auto& [n, p] : {std::pair<int, std::size_t>{5, 16}, {3, 8}}) {
    TopK target = warmed_topk(n, p, 67);
    const std::vector<std::uint8_t> before = target.snapshot();
    for (std::size_t len = 0; len < snap.size(); ++len) {
      const std::vector<std::uint8_t> prefix(
          snap.begin(), snap.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(target.restore(prefix), std::runtime_error);
      ASSERT_EQ(target.snapshot(), before)
          << n << " clients: a " << len << "-byte prefix changed the TopK";
    }
  }
  // The whole snapshot only restores onto the cohort it came from.
  TopK smaller = warmed_topk(3, 8, 67);
  const std::vector<std::uint8_t> before = smaller.snapshot();
  EXPECT_THROW(smaller.restore(snap), std::runtime_error);
  EXPECT_EQ(smaller.snapshot(), before);
}

TEST(SparseResidual, RestoreBoundsTheClientCountBeforeAllocating) {
  // The client count follows the 4-byte magic. 2^31 - 1 clients would
  // shape the residual store with 16 GiB of slab pointers.
  std::vector<std::uint8_t> snap = warmed_topk(5, 16, 61).snapshot();
  const std::int32_t huge = 0x7fffffff;
  std::memcpy(snap.data() + 4, &huge, sizeof(huge));
  TopK target = warmed_topk(5, 16, 67);
  const std::vector<std::uint8_t> before = target.snapshot();
  EXPECT_THROW(target.restore(snap), std::runtime_error);
  EXPECT_EQ(target.snapshot(), before);
}

// --- steady-state allocation budget --------------------------------------

#ifdef FEDSU_COUNT_ALLOCS
TEST(SteadyState, TopKRoundLoopAllocatesOnlyTheResult) {
  util::ThreadPool::set_global_threads(1);
  const int n = 8;
  const std::size_t p = 2048;
  TopK topk(n, {0.1});
  std::vector<float> global(p, 0.0f);
  topk.initialize(global);
  // Pre-sized client states, refreshed in place each round so the harness
  // itself allocates nothing inside the measured window.
  std::vector<std::vector<float>> states(
      static_cast<std::size_t>(n), std::vector<float>(p));
  const auto state_views = views(states);
  const util::Rng base(53);
  RoundContext ctx = ctx_of(0, n, global);
  const auto run_round = [&](int round) {
    const util::Rng round_rng = base.fork(round + 1);
    for (std::size_t i = 0; i < states.size(); ++i) {
      util::Rng rng = round_rng.fork(i + 1);
      for (std::size_t j = 0; j < p; ++j) {
        states[i][j] = static_cast<float>(rng.normal() * 0.1);
      }
    }
    ctx.round = round;
    return topk.synchronize(ctx, state_views);
  };
  // Warm-up: grows the scratch arena, the selection/aggregation buffers,
  // and materializes every residual slab.
  for (int round = 0; round < 3; ++round) run_round(round);

  const std::size_t base_count = g_alloc_count.load();
  run_round(3);
  const std::size_t round4 = g_alloc_count.load() - base_count;
  run_round(4);
  const std::size_t round5 = g_alloc_count.load() - base_count - round4;
  // Steady state: identical allocation count per round, and only the
  // SyncResult's returned vectors (new_global copy, bytes_up, bytes_down)
  // — nothing from selection, compensation, or aggregation.
  EXPECT_EQ(round4, round5);
  EXPECT_LE(round4, 4u);
}
#endif  // FEDSU_COUNT_ALLOCS

}  // namespace
}  // namespace fedsu::compress

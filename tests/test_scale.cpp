// Scaling-subsystem tests (DESIGN.md §13): the fixed-shape blocked
// reduction, zero-copy dataset views, the sparse per-client error store,
// and the §5b thread-count-invariance contract at a 128-client cohort —
// synchronous and buffered-async.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "compress/wire.h"
#include "core/distributed.h"
#include "core/fedsu_manager.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "io/serialize.h"
#include "nn/zoo.h"
#include "util/reduce.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsu {
namespace {

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  v.reserve(states.size());
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

std::vector<std::vector<float>> random_states(std::size_t n, std::size_t p,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> states(n);
  for (auto& s : states) {
    s.resize(p);
    for (auto& v : s) v = static_cast<float>(rng.normal());
  }
  return states;
}

// --- util/reduce: the fixed block shape ----------------------------------

TEST(Reduce, SingleBlockMatchesSerialChain) {
  // n <= kReduceClientBlock must reproduce the historical serial fold
  // bit for bit — that is what keeps the checked-in 8-client baselines
  // valid (util/reduce.h).
  const std::size_t n = util::kReduceClientBlock;
  const std::size_t p = 17;
  const auto states = random_states(n, p, 7);
  std::vector<double> sums(p, 0.0);
  util::column_sums(views(states), sums, &util::ThreadPool::global());
  std::vector<float> means(p, 0.0f);
  util::column_means(views(states), means, &util::ThreadPool::global());
  for (std::size_t j = 0; j < p; ++j) {
    double serial = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      serial += static_cast<double>(states[i][j]);
    }
    ASSERT_EQ(sums[j], serial) << "column " << j;
    ASSERT_EQ(means[j], static_cast<float>(serial * (1.0 / n)))
        << "column " << j;
  }
}

TEST(Reduce, BitwiseInvariantAcrossThreadCounts) {
  // The §5b extension: for ANY cohort size the result is a function of
  // (n, p) alone, never of the worker count.
  const std::size_t n = 3 * util::kReduceClientBlock + 5;  // multi-block
  const std::size_t p = 41;
  const auto states = random_states(n, p, 11);
  std::vector<float> reference;
  for (const int threads : {1, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<float> means(p, 0.0f);
    util::column_means(views(states), means, &util::ThreadPool::global());
    if (reference.empty()) {
      reference = means;
    } else {
      ASSERT_EQ(means, reference) << "threads=" << threads;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(Reduce, BlockedSumMatchesColumnShape) {
  // blocked_sum over a gathered column must equal column_sums over the
  // same values laid out as width-1 rows: pass 2 of FedSuManager relies on
  // the two walking the identical block tree.
  const std::size_t n = 2 * util::kReduceClientBlock + 9;
  util::Rng rng(13);
  std::vector<float> column(n);
  for (auto& v : column) v = static_cast<float>(rng.normal());
  std::vector<std::span<const float>> rows;
  for (const float& v : column) rows.emplace_back(&v, 1);
  std::vector<double> sum(1, 0.0);
  util::column_sums(rows, sum, &util::ThreadPool::global());
  EXPECT_EQ(util::blocked_sum(column), sum[0]);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Values spread over 2^60 plus, per column, a cancelling +/-2^40 pair in
// rows 0 and 33 (when present): double folds of these columns round, so
// every comparison below depends on the exact block shape, not just on
// which values were summed.
std::vector<std::vector<float>> wide_states(std::size_t n, std::size_t p,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> states(n, std::vector<float>(p));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      const int exponent = static_cast<int>(rng.uniform_index(61)) - 30;
      states[i][j] = static_cast<float>(std::ldexp(rng.normal(), exponent));
    }
  }
  for (std::size_t j = 0; j < p; ++j) {
    states[0][j] = 0x1p40f;
    if (n > 33) states[33][j] = -0x1p40f;
  }
  return states;
}

constexpr std::size_t kCohortSizes[] = {1, 31, 32, 33, 64, 97};

// The documented block shape written out independently of util/reduce:
// 32-value blocks, each a serial chain from 0.0, combined in ascending
// order seeded from block 0's partial.
double reference_tree(const std::vector<float>& column) {
  double total = 0.0;
  for (std::size_t b = 0; b * util::kReduceClientBlock < column.size(); ++b) {
    double acc = 0.0;
    for (std::size_t i = b * util::kReduceClientBlock;
         i < std::min(column.size(), (b + 1) * util::kReduceClientBlock); ++i) {
      acc += column[i];
    }
    total = b == 0 ? acc : total + acc;
  }
  return total;
}

TEST(Reduce, ListedColumnSumsMatchColumnSumsBitwise) {
  // The listed fold gives every listed column exactly the bits column_sums
  // gives it, for any list (ascending, descending, empty) and thread count.
  // 4,500 listed columns exceed one parallel column grain, so the
  // single-block path chunks its columns too.
  const std::size_t p = 9000;
  std::vector<std::size_t> odd;
  for (std::size_t j = 1; j < p; j += 2) odd.push_back(j);
  const std::vector<std::size_t> descending = {p - 1, 4096, 17, 3, 0};
  const std::vector<std::vector<std::size_t>> lists = {odd, descending, {}};
  bool shape_matters = false;
  for (const int threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    for (const std::size_t n : kCohortSizes) {
      const auto states = wide_states(n, p, 100 + n);
      std::vector<double> full(p);
      util::column_sums(views(states), full, &util::ThreadPool::global());
      for (const auto& cols : lists) {
        std::vector<double> sums(cols.size(), -1.0);
        util::listed_column_sums(views(states), cols, sums,
                                 &util::ThreadPool::global());
        for (std::size_t k = 0; k < cols.size(); ++k) {
          ASSERT_EQ(bits(sums[k]), bits(full[cols[k]]))
              << "n=" << n << " threads=" << threads << " column " << cols[k];
        }
      }
      for (const std::size_t j : descending) {
        std::vector<float> column;
        for (const auto& row : states) column.push_back(row[j]);
        ASSERT_EQ(bits(full[j]), bits(reference_tree(column)))
            << "n=" << n << " column " << j;
      }
      for (std::size_t j = 0; j < p && !shape_matters; ++j) {
        double flat = 0.0;
        for (std::size_t i = 0; i < n; ++i) flat += states[i][j];
        shape_matters = bits(flat) != bits(full[j]);
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
  EXPECT_TRUE(shape_matters) << "data never tells a flat fold from the tree";

  std::vector<double> one(1);
  const std::vector<std::size_t> out_of_range = {p};
  EXPECT_THROW(util::listed_column_sums(views(wide_states(2, p, 1)),
                                        out_of_range, one, nullptr),
               std::invalid_argument);
}

TEST(Reduce, StreamedBlockedSumMatchesFilteredColumnBitwise) {
  // FedSuManager pass 2 folds rows in ascending order into one BlockedSum
  // per column, skipping filtered rows, in parallel over column chunks.
  // Each result must be blocked_sum of the filtered column gathered on its
  // own: blocks count positions in the filtered list, not row indices.
  // Column 0 keeps every row; column 1 filters every row out.
  const std::size_t m = 40;
  auto kept = [](std::size_t i, std::size_t k) {
    if (k == 0) return true;
    if (k == 1) return false;
    return (i * 7 + k * 3) % 5 != 0;
  };
  bool position_matters = false;
  for (const int threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    for (const std::size_t n : kCohortSizes) {
      const auto states = wide_states(n, m, 200 + n);
      std::vector<util::BlockedSum> folds(m);
      util::ThreadPool::global().parallel_for(
          0, m, [&](std::size_t k0, std::size_t k1) {
            for (std::size_t i = 0; i < n; ++i) {
              for (std::size_t k = k0; k < k1; ++k) {
                if (kept(i, k)) folds[k].add(states[i][k]);
              }
            }
          });
      for (std::size_t k = 0; k < m; ++k) {
        std::vector<float> column;
        double by_row_block = 0.0;  // blocks keyed by row index instead
        for (std::size_t b = 0; b * util::kReduceClientBlock < n; ++b) {
          double acc = 0.0;
          for (std::size_t i = b * util::kReduceClientBlock;
               i < std::min(n, (b + 1) * util::kReduceClientBlock); ++i) {
            if (!kept(i, k)) continue;
            column.push_back(states[i][k]);
            acc += states[i][k];
          }
          by_row_block = b == 0 ? acc : by_row_block + acc;
        }
        ASSERT_EQ(folds[k].count, column.size()) << "n=" << n << " k=" << k;
        ASSERT_EQ(bits(folds[k].result()), bits(reference_tree(column)))
            << "n=" << n << " threads=" << threads << " column " << k;
        ASSERT_EQ(bits(util::blocked_sum(column)), bits(reference_tree(column)))
            << "n=" << n << " column " << k;
        position_matters |= bits(by_row_block) != bits(folds[k].result());
      }
      EXPECT_EQ(folds[1].count, 0u);
      EXPECT_EQ(bits(folds[1].result()), bits(0.0));
    }
  }
  util::ThreadPool::set_global_threads(1);
  EXPECT_TRUE(position_matters)
      << "data never tells position blocks from row blocks";
  EXPECT_EQ(bits(util::blocked_sum({})), bits(0.0));
}

// --- data: zero-copy views -----------------------------------------------

TEST(DatasetView, GatherBitIdenticalToSubsetCopy) {
  data::SyntheticSpec spec;
  spec.train_count = 120;
  spec.test_count = 10;
  spec.image_size = 6;
  const auto data = data::generate_synthetic(spec);
  const auto parent = std::make_shared<const data::Dataset>(data.train);
  data::PartitionOptions part;
  part.num_clients = 5;
  auto shards = data::dirichlet_partition(*parent, part);

  for (const auto& rows : shards) {
    const data::DatasetView view(parent, rows);
    const data::Dataset copy = parent->subset(rows);
    ASSERT_EQ(view.size(), copy.size());
    // Same batch through both paths: the bytes must match exactly.
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < view.size(); i += 2) indices.push_back(i);
    tensor::Tensor view_batch, copy_batch;
    std::vector<int> view_labels, copy_labels;
    view.gather(indices, view_batch, view_labels);
    copy.gather(indices, copy_batch, copy_labels);
    ASSERT_EQ(view_labels, copy_labels);
    ASSERT_EQ(view_batch.size(), copy_batch.size());
    ASSERT_EQ(std::memcmp(view_batch.data(), copy_batch.data(),
                          view_batch.size() * sizeof(float)),
              0);
  }
}

TEST(DatasetView, ClientTrainsIdenticallyThroughViewAndCopy) {
  data::SyntheticSpec spec;
  spec.train_count = 80;
  spec.test_count = 10;
  spec.image_size = 8;
  const auto data = data::generate_synthetic(spec);
  const auto parent = std::make_shared<const data::Dataset>(data.train);
  std::vector<std::size_t> rows;
  for (std::size_t i = 3; i < 60; i += 2) rows.push_back(i);

  fl::Client view_client(0, data::DatasetView(parent, rows), 8, util::Rng(4));
  fl::Client copy_client(0, parent->subset(rows), 8, util::Rng(4));

  nn::ModelSpec mspec;
  mspec.arch = "mlp";
  mspec.image_size = 8;
  mspec.hidden = 12;
  nn::Model model_a = nn::build_model(mspec, util::Rng(21));
  nn::Model model_b = nn::build_model(mspec, util::Rng(21));

  fl::LocalTrainOptions local;
  local.iterations = 6;
  local.batch_size = 8;
  local.learning_rate = 0.05f;
  const float loss_a = view_client.train_round(model_a, local);
  const float loss_b = copy_client.train_round(model_b, local);
  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(model_a.state_vector(), model_b.state_vector());
}

// --- core: the sparse error store ----------------------------------------

TEST(SparseErrorStore, LazyAllocationAndRelease) {
  core::SparseErrorStore store;
  store.reset(4, 6);
  EXPECT_EQ(store.allocated_slabs(), 0u);
  EXPECT_EQ(store.value(2, 3), 0.0f);

  float* slab = store.ensure(2);
  ASSERT_NE(slab, nullptr);
  slab[3] = 1.5f;
  EXPECT_EQ(store.allocated_slabs(), 1u);
  EXPECT_EQ(store.value(2, 3), 1.5f);
  EXPECT_EQ(store.resident_bytes(), 6 * sizeof(float));

  const std::size_t cleared[] = {3};
  store.clear_params(cleared, nullptr);  // only allocated slabs are touched
  EXPECT_EQ(store.value(2, 3), 0.0f);

  store.release(2);
  EXPECT_EQ(store.allocated_slabs(), 0u);
  EXPECT_EQ(store.slab(2), nullptr);

  store.add_client();
  EXPECT_EQ(store.num_clients(), 5);
  EXPECT_EQ(store.value(4, 0), 0.0f);
}

TEST(SparseErrorStore, SerializeRoundTrip) {
  core::SparseErrorStore store;
  store.reset(5, 3);
  store.ensure(1)[0] = -2.0f;
  store.ensure(4)[2] = 0.25f;

  io::BinaryWriter writer;
  store.serialize(writer);
  io::BinaryReader reader(writer.buffer());
  core::SparseErrorStore restored;
  restored.deserialize(reader, 5, 3);

  EXPECT_EQ(restored.allocated_slabs(), 2u);
  for (int c = 0; c < 5; ++c) {
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(restored.value(c, j), store.value(c, j))
          << "client " << c << " param " << j;
    }
  }
  // Unallocated clients stay unallocated after the trip.
  EXPECT_EQ(restored.slab(0), nullptr);
  EXPECT_EQ(restored.slab(2), nullptr);
}

// Drives a manager until error slabs exist, then checks the snapshot
// carries them and a rejoin releases them.
core::FedSuManager warmed_manager(int clients, int rounds, std::size_t p) {
  core::FedSuOptions options;
  options.warmup = 3;
  core::FedSuManager manager(clients, options);
  std::vector<float> global(p, 0.0f);
  manager.initialize(global);
  util::Rng rng(17);
  std::vector<float> state = global;
  for (int r = 0; r < rounds; ++r) {
    compress::RoundContext ctx;
    ctx.round = r;
    std::vector<std::vector<float>> locals(clients);
    for (int i = 0; i < clients; ++i) {
      locals[i].resize(p);
      for (std::size_t j = 0; j < p; ++j) {
        // Even params drift exactly linearly until round 6 (promoted),
        // then pick up small client-skewed noise: speculation now mispredicts
        // slightly, so the error slabs actually allocate. Odd params stay
        // noisy and unpredictable throughout.
        float drift;
        if (j % 2 == 0) {
          drift = r < 6 ? 0.125f
                        : 0.125f + static_cast<float>(0.02 * rng.normal() +
                                                      0.005 * (i + 1));
        } else {
          drift = static_cast<float>(0.1 * rng.normal() + 0.01 * i);
        }
        locals[i][j] = state[j] + drift;
      }
      ctx.participants.push_back(i);
    }
    state = manager.synchronize(ctx, views(locals)).new_global;
  }
  return manager;
}

TEST(SparseErrorStore, SnapshotRestoresSlabsExactly) {
  core::FedSuManager original = warmed_manager(3, 12, 8);
  ASSERT_GT(original.error_store().allocated_slabs(), 0u)
      << "driver failed to accumulate any error";

  const auto snapshot = original.snapshot();
  core::FedSuManager restored(3);
  std::vector<float> dummy(8, 0.0f);
  restored.initialize(dummy);
  restored.restore(snapshot);

  const auto& a = original.error_store();
  const auto& b = restored.error_store();
  ASSERT_EQ(b.allocated_slabs(), a.allocated_slabs());
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(b.slab(c) == nullptr, a.slab(c) == nullptr) << "client " << c;
    for (std::size_t j = 0; j < 8; ++j) {
      ASSERT_EQ(b.value(c, j), a.value(c, j))
          << "client " << c << " param " << j;
    }
  }
}

TEST(SparseErrorStore, RejoinReleasesTheSlab) {
  core::FedSuManager manager = warmed_manager(3, 12, 8);
  const std::size_t before = manager.error_store().allocated_slabs();
  ASSERT_GT(before, 0u);
  int victim = -1;
  for (int c = 0; c < 3; ++c) {
    if (manager.error_store().slab(c) != nullptr) victim = c;
  }
  manager.on_client_rejoin(victim);
  EXPECT_EQ(manager.error_store().allocated_slabs(), before - 1);
  EXPECT_EQ(manager.error_store().slab(victim), nullptr);
}

// --- distributed parity past one reduction block -------------------------

TEST(Distributed, MatchesCentralizedBeyondOneBlock) {
  // 40 clients > kReduceClientBlock: the server's multi-block tree must
  // still mirror the centralized manager exactly (§5b extension).
  const std::size_t p = 12;
  const int clients = 40;
  static_assert(40 > static_cast<int>(util::kReduceClientBlock));
  core::FedSuOptions options;
  options.warmup = 3;

  core::FedSuManager centralized(clients, options);
  std::vector<float> global(p, 0.0f);
  centralized.initialize(global);
  core::FedSuServer server;
  std::vector<core::FedSuClientManager> managers;
  for (int i = 0; i < clients; ++i) {
    managers.emplace_back(p, options);
    managers.back().initialize(global);
  }

  util::Rng rng(29);
  std::vector<float> central_state = global;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<float>> locals(clients);
    for (int i = 0; i < clients; ++i) {
      locals[i].resize(p);
      for (std::size_t j = 0; j < p; ++j) {
        const float drift = (j % 3 == 0)
                                ? 0.125f
                                : static_cast<float>(0.2 * rng.normal());
        locals[i][j] = central_state[j] + drift +
                       static_cast<float>(0.01 * (i % 5));
      }
    }

    compress::RoundContext ctx;
    ctx.round = round;
    for (int i = 0; i < clients; ++i) ctx.participants.push_back(i);
    const auto central_result = centralized.synchronize(ctx, views(locals));

    std::vector<core::FedSuUpload> uploads;
    for (int i = 0; i < clients; ++i) {
      uploads.push_back(managers[i].begin_sync(locals[i]));
    }
    const core::FedSuDownload download = server.aggregate(uploads);
    for (int i = 0; i < clients; ++i) {
      ASSERT_EQ(managers[i].finish_sync(download), central_result.new_global)
          << "client " << i << " round " << round;
    }
    central_state = central_result.new_global;
  }
}

// --- FedSuManager past one reduction block: a pinned trace ---------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t b = 0; b < size; ++b) {
    h ^= bytes[b];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct FedSuTraceDigest {
  std::uint64_t globals = 0xcbf29ce484222325ULL;  // every round's new_global
  std::uint64_t snapshot = 0xcbf29ce484222325ULL;  // the final snapshot()
  std::size_t promotions = 0;
  std::size_t demotions = 0;
  std::size_t expiring_after_rejoin = 0;
};

// 80 clients, 76 participating per round (a rotating four sit out), over 24
// parameters in three families: exactly linear, linear plus client-skewed
// noise (speculates, then drifts far enough to demote), and pure noise.
// Three clients rejoin in the middle of the linear phases, so their
// accumulators are filtered out of later expiring checks while more than
// two reduction blocks of valid entries remain. Every seventh client
// reports from a model three rounds stale, so the version fence keeps it
// out of phases that started since. Payload audit is on throughout.
FedSuTraceDigest run_pinned_fedsu_trace() {
  constexpr int kClients = 80;
  constexpr std::size_t kParams = 24;
  constexpr int kRounds = 24;
  constexpr int kRejoinRound = 11;
  compress::wire::set_payload_audit(true);
  core::FedSuOptions options;
  options.warmup = 3;
  core::FedSuManager manager(kClients, options);
  std::vector<float> global(kParams);
  for (std::size_t j = 0; j < kParams; ++j) {
    global[j] = 0.01f * static_cast<float>(j);
  }
  manager.initialize(global);
  util::Rng rng(0xfed5);
  FedSuTraceDigest digest;
  for (int r = 0; r < kRounds; ++r) {
    if (r == kRejoinRound) {
      for (const int c : {3, 40, 77}) manager.on_client_rejoin(c);
    }
    compress::RoundContext ctx;
    ctx.round = r;
    std::vector<std::vector<float>> locals;
    for (int i = 0; i < kClients; ++i) {
      if (i % 20 == r % 20) continue;
      ctx.participants.push_back(i);
      ctx.dispatch_rounds.push_back(i % 7 == 0 ? std::max(0, r - 3) : r);
      std::vector<float> local(kParams);
      for (std::size_t j = 0; j < kParams; ++j) {
        float drift = 0.0625f;
        if (j % 3 == 1 && r >= 6) {
          drift += static_cast<float>(0.01 * rng.normal() + 0.01 * (i % 5));
        } else if (j % 3 == 2) {
          drift = static_cast<float>(0.1 * rng.normal());
        }
        local[j] = global[j] + drift;
      }
      locals.push_back(std::move(local));
    }
    global = manager.synchronize(ctx, views(locals)).new_global;
    digest.globals =
        fnv1a(digest.globals, global.data(), global.size() * sizeof(float));
    const auto& diag = manager.last_round_diagnostics();
    digest.promotions += diag.promotions;
    digest.demotions += diag.demotions;
    if (r > kRejoinRound) digest.expiring_after_rejoin += diag.expiring;
  }
  const auto snapshot = manager.snapshot();
  digest.snapshot = fnv1a(digest.snapshot, snapshot.data(), snapshot.size());
  compress::wire::set_payload_audit(false);
  return digest;
}

TEST(FedSuManager, TraceBeyondOneBlockIsPinned) {
  // Hashes recorded from the per-column implementation of the three
  // passes; any restructuring of them must reproduce these bits.
  constexpr std::uint64_t kGlobals = 0x5ee41a120cb12876ULL;
  constexpr std::uint64_t kSnapshot = 0x8b7f6480c10857a9ULL;
  for (const int threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    const FedSuTraceDigest digest = run_pinned_fedsu_trace();
    EXPECT_GT(digest.promotions, 0u);
    EXPECT_GT(digest.demotions, 0u);
    EXPECT_GT(digest.expiring_after_rejoin, 0u);
    EXPECT_EQ(digest.globals, kGlobals) << "threads=" << threads;
    EXPECT_EQ(digest.snapshot, kSnapshot) << "threads=" << threads;
  }
  util::ThreadPool::set_global_threads(1);
}

// --- FedSU-v1/v2 past one reduction block: pinned traces ------------------

struct VariantTraceDigest {
  std::uint64_t rounds = 0xcbf29ce484222325ULL;  // globals, bytes, scalars
  int entries = 0;   // rounds whose speculated fraction rose
  int exits = 0;     // rounds whose speculated fraction fell
  bool reentered = false;  // a rise after the first fall
};

// 40 clients, 36 participating per round (a rotating four sit out), over
// 24 parameters in three families: exactly linear, linear until round 14
// and then reversed, and noise whose ±2^40 pair in participant rows 0 and
// 33 makes a flat fold and the block tree round to different means. 30
// rounds see entries, fixed-period exits and re-entries. Payload audit is
// on throughout.
VariantTraceDigest run_pinned_variant_trace(const std::string& scheme) {
  constexpr int kClients = 40;
  constexpr std::size_t kParams = 24;
  constexpr int kRounds = 30;
  compress::wire::set_payload_audit(true);
  fl::ProtocolConfig config;
  config.name = scheme;
  config.num_clients = kClients;
  config.fedsu_v1.fixed_period = 5;
  config.fedsu_v2.enter_probability = 0.2;
  config.fedsu_v2.fixed_period = 3;
  auto proto = fl::make_protocol(config);
  std::vector<float> global(kParams);
  for (std::size_t j = 0; j < kParams; ++j) {
    global[j] = 0.01f * static_cast<float>(j);
  }
  proto->initialize(global);
  util::Rng rng(0xfed5b1);
  VariantTraceDigest digest;
  double fraction = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    compress::RoundContext ctx;
    ctx.round = r;
    ctx.global = global;
    std::vector<std::vector<float>> locals;
    for (int i = 0; i < kClients; ++i) {
      if (i % 10 == r % 10) continue;
      const std::size_t row = ctx.participants.size();
      ctx.participants.push_back(i);
      std::vector<float> local(kParams);
      for (std::size_t j = 0; j < kParams; ++j) {
        float drift = 0.0625f;
        if (j % 3 == 1 && r >= 14) {
          drift = -0.0625f;
        } else if (j % 3 == 2) {
          drift = row == 0    ? 0x1p40f
                  : row == 33 ? -0x1p40f
                              : static_cast<float>(0.1 * rng.normal());
        }
        local[j] = global[j] + drift;
      }
      locals.push_back(std::move(local));
    }
    const compress::SyncResult result = proto->synchronize(ctx, views(locals));
    global = result.new_global;
    digest.rounds =
        fnv1a(digest.rounds, global.data(), global.size() * sizeof(float));
    digest.rounds = fnv1a(digest.rounds, result.bytes_up.data(),
                          result.bytes_up.size() * sizeof(std::size_t));
    digest.rounds = fnv1a(digest.rounds, result.bytes_down.data(),
                          result.bytes_down.size() * sizeof(std::size_t));
    const std::size_t scalars[] = {result.scalars_up, result.scalars_down};
    digest.rounds = fnv1a(digest.rounds, scalars, sizeof(scalars));
    const double ratios[] = {proto->last_sparsification_ratio(),
                             proto->last_round_telemetry().speculated_fraction};
    digest.rounds = fnv1a(digest.rounds, ratios, sizeof(ratios));
    if (ratios[1] > fraction) {
      ++digest.entries;
      digest.reentered |= digest.exits > 0;
    }
    if (ratios[1] < fraction) ++digest.exits;
    fraction = ratios[1];
  }
  compress::wire::set_payload_audit(false);
  return digest;
}

TEST(FedSuVariants, TracesBeyondOneBlockArePinned) {
  // Hashes recorded from the variants' own loops, before they moved onto
  // the shared speculation kernel; the kernel must reproduce these bits.
  const std::pair<std::string, std::uint64_t> pinned[] = {
      {"fedsu-v1", 0xd284d736ca40d19eULL},
      {"fedsu-v2", 0xca380c0d9fc59a79ULL},
  };
  for (const auto& [scheme, hash] : pinned) {
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      const VariantTraceDigest digest = run_pinned_variant_trace(scheme);
      EXPECT_GT(digest.entries, 1) << scheme;
      EXPECT_GT(digest.exits, 0) << scheme;
      EXPECT_TRUE(digest.reentered) << scheme;
      EXPECT_EQ(digest.rounds, hash)
          << scheme << " threads=" << threads << std::hex << " got 0x"
          << digest.rounds;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

// --- fl: §5b at cohort scale ---------------------------------------------

fl::SimulationOptions cohort_options(int clients, int threads, bool async) {
  fl::SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 8;
  options.model.hidden = 10;
  options.dataset.image_size = 8;
  options.dataset.train_count = 4 * clients;
  options.dataset.test_count = 60;
  options.num_clients = clients;
  options.participation_fraction = 0.5;
  options.local.iterations = 2;
  options.local.batch_size = 4;
  options.local.learning_rate = 0.05f;
  options.eval_every = 0;
  options.threads = threads;
  options.async.enabled = async;
  return options;
}

void expect_thread_invariance(bool async) {
  std::vector<float> reference;
  std::uint64_t reference_bytes = 0;
  for (const int threads : {1, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    fl::ProtocolConfig pc;
    pc.name = "fedsu";
    pc.num_clients = 128;
    fl::Simulation sim(cohort_options(128, threads, async),
                       fl::make_protocol(pc));
    std::uint64_t bytes = 0;
    for (int r = 0; r < 4; ++r) {
      const auto record = sim.step();
      bytes += record.bytes_up + record.bytes_down;
    }
    if (reference.empty()) {
      reference = sim.global_state();
      reference_bytes = bytes;
    } else {
      ASSERT_EQ(sim.global_state(), reference) << "threads=" << threads;
      ASSERT_EQ(bytes, reference_bytes) << "threads=" << threads;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(Simulation, Cohort128BitwiseIdenticalAcrossThreadCountsSync) {
  expect_thread_invariance(/*async=*/false);
}

TEST(Simulation, Cohort128BitwiseIdenticalAcrossThreadCountsAsync) {
  expect_thread_invariance(/*async=*/true);
}

}  // namespace
}  // namespace fedsu

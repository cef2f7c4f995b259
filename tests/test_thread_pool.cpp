// util::ThreadPool: exact range coverage, exception propagation, nested and
// degenerate ranges, the pull queue's worker indexing — plus the FL
// determinism contract: a simulation's global model is bitwise identical at
// 1 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "util/thread_pool.h"

namespace fedsu::util {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(4), 4);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(0, kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, GrainCoarsensChunksButKeepsCoverage) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, kN,
      [&](std::size_t begin, std::size_t end) {
        chunks.fetch_add(1);
        EXPECT_GE(end - begin, std::size_t{1});
        for (std::size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
      },
      /*grain=*/400);
  // ceil(1000 / 400) = 3 chunks at most (capped by pool size anyway).
  EXPECT_LE(chunks.load(), 3);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, NonZeroBeginRespected) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(100);
  pool.parallel_for(40, 100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(counts[i].load(), 0);
  for (std::size_t i = 40; i < 100; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  pool.parallel_pull(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
  // All chunks of the failing region finished before the rethrow, and the
  // pool accepts new work.
  std::atomic<int> ran{0};
  pool.parallel_for(0, 64, [&](std::size_t begin, std::size_t end) {
    ran.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8, kInner = 50;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o) {
      pool.parallel_for(0, kInner, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i) {
          counts[o * kInner + i].fetch_add(1);
        }
      });
    }
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelPullRunsEveryItemOnceOnADenseWorker) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> counts(kItems);
  // A worker index is held by one thread at a time: two threads inside
  // the body with the same index would both see busy[worker] set.
  std::vector<std::atomic<int>> busy(4);
  std::vector<std::atomic<int>> used(4);
  std::atomic<bool> shared{false};
  pool.parallel_pull(kItems, [&](std::size_t item, std::size_t worker) {
    ASSERT_LT(worker, std::size_t{4});
    if (busy[worker].fetch_add(1) != 0) shared.store(true);
    used[worker].store(1);
    counts[item].fetch_add(1);
    busy[worker].fetch_sub(1);
  });
  EXPECT_FALSE(shared.load()) << "two threads held one worker index";
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(counts[i].load(), 1);
  // Dense: the indices in use are 0 .. k-1 for some k.
  std::size_t k = 0;
  while (k < used.size() && used[k].load()) ++k;
  for (std::size_t w = k; w < used.size(); ++w) {
    EXPECT_EQ(used[w].load(), 0) << "worker " << w << " used after a gap";
  }
  EXPECT_GE(k, std::size_t{1});
}

TEST(ThreadPool, ParallelPullNeverUsesMoreWorkersThanItems) {
  ThreadPool pool(8);
  std::mutex mutex;
  std::set<std::size_t> workers;
  pool.parallel_pull(3, [&](std::size_t, std::size_t worker) {
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(worker);
  });
  EXPECT_LE(workers.size(), std::size_t{3});
  for (std::size_t w : workers) EXPECT_LT(w, std::size_t{3});
}

TEST(ThreadPool, ParallelPullHandsOutItemsToIdleWorkers) {
  // Item 0 blocks its worker until every other item has run: with a fixed
  // contiguous split the worker holding item 0 would also own items 1 ..,
  // so this only finishes if the other workers pull them.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 64;
  std::atomic<std::size_t> done{0};
  pool.parallel_pull(kItems, [&](std::size_t item, std::size_t) {
    if (item == 0) {
      while (done.load() < kItems - 1) std::this_thread::yield();
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), kItems);
}

TEST(ThreadPool, ParallelPullPropagatesTheFirstException) {
  ThreadPool pool(4);
  try {
    pool.parallel_pull(1000, [&](std::size_t item, std::size_t) {
      if (item == 5) throw std::runtime_error("item 5 failed");
    });
    ADD_FAILURE() << "parallel_pull returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 5 failed");
  }
  // Every worker stopped before the rethrow, and the pool accepts new work.
  std::atomic<int> after{0};
  pool.parallel_pull(64, [&](std::size_t, std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, ParallelPullRunsInlineOnOneThreadAndWhenNested) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool serial(1);
  std::vector<std::size_t> order;
  serial.parallel_pull(5, [&](std::size_t item, std::size_t worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, std::size_t{0});
    order.push_back(item);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8, kInner = 20;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_pull(kOuter, [&](std::size_t outer, std::size_t) {
    const std::thread::id worker_thread = std::this_thread::get_id();
    std::size_t expected = 0;
    pool.parallel_pull(kInner, [&](std::size_t inner, std::size_t worker) {
      EXPECT_EQ(std::this_thread::get_id(), worker_thread);
      EXPECT_EQ(worker, std::size_t{0});
      EXPECT_EQ(inner, expected++);
      counts[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WorthParallelizingReflectsSizeAndNesting) {
  ThreadPool serial(1);
  EXPECT_FALSE(serial.worth_parallelizing());
  ThreadPool pool(4);
  EXPECT_TRUE(pool.worth_parallelizing());
  std::atomic<bool> nested_worth{true};
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t) {
    if (pool.worth_parallelizing()) nested_worth.store(true);
    else nested_worth.store(false);
  });
  EXPECT_FALSE(nested_worth.load());
}

}  // namespace
}  // namespace fedsu::util

namespace fedsu::fl {
namespace {

SimulationOptions determinism_options(int threads) {
  SimulationOptions options;
  options.model.arch = "cnn";  // exercises the conv + matmul kernels
  options.model.image_size = 16;
  options.dataset.image_size = 16;
  options.dataset.train_count = 360;
  options.dataset.test_count = 80;
  options.num_clients = 6;
  options.local.iterations = 3;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.eval_every = 0;
  options.threads = threads;
  return options;
}

std::vector<float> run_rounds(int threads, int rounds) {
  SimulationOptions options = determinism_options(threads);
  ProtocolConfig config;
  config.name = "fedavg";
  config.num_clients = options.num_clients;
  Simulation sim(options, make_protocol(config));
  sim.run(rounds);
  return sim.global_state();
}

// The PR's determinism contract: per-client RNG forks + per-worker replicas
// + ordered aggregation make the global model independent of thread count,
// bit for bit.
TEST(SimulationDeterminism, GlobalModelBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<float> serial = run_rounds(/*threads=*/1, /*rounds=*/3);
  const std::vector<float> parallel = run_rounds(/*threads=*/8, /*rounds=*/3);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(float)),
            0)
      << "global model diverged between 1 and 8 threads";
  const std::vector<float> parallel3 = run_rounds(/*threads=*/3, /*rounds=*/3);
  EXPECT_EQ(std::memcmp(serial.data(), parallel3.data(),
                        serial.size() * sizeof(float)),
            0)
      << "global model diverged between 1 and 3 threads";
}

// Training losses and round records must match too, not just final weights.
TEST(SimulationDeterminism, RoundRecordsMatchAcrossThreadCounts) {
  SimulationOptions serial_options = determinism_options(1);
  SimulationOptions parallel_options = determinism_options(5);
  ProtocolConfig config;
  config.name = "fedavg";
  config.num_clients = serial_options.num_clients;
  Simulation serial(serial_options, make_protocol(config));
  Simulation parallel(parallel_options, make_protocol(config));
  for (int r = 0; r < 3; ++r) {
    const RoundRecord a = serial.step();
    const RoundRecord b = parallel.step();
    EXPECT_EQ(a.train_loss, b.train_loss) << "round " << r;
    EXPECT_EQ(a.bytes_up, b.bytes_up) << "round " << r;
    EXPECT_EQ(a.num_participants, b.num_participants) << "round " << r;
  }
}

}  // namespace
}  // namespace fedsu::fl

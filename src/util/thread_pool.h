// Fixed-size worker pool with a chunked parallel_for.
//
// Design notes (DESIGN.md §"Determinism under parallelism"):
//  * Work is split into contiguous index chunks; each chunk runs the same
//    sequential loop body it would run single-threaded, so any computation
//    whose outputs are disjoint per index is bitwise identical for every
//    thread count (including 1).
//  * Calls issued from inside a worker run inline on that worker (nested
//    parallel_for never deadlocks and never oversubscribes).
//  * The first exception thrown by any chunk is rethrown on the caller once
//    all chunks have finished; the pool stays usable afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedsu::util {

class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency() (min 1).
  // A pool of size 1 spawns no workers; everything runs on the caller.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  // Resolves the `0 = hardware concurrency` convention used by flags and
  // SimulationOptions.
  static int resolve_threads(int requested);

  // Runs body(chunk_begin, chunk_end) over a partition of [begin, end) into
  // chunks of at least `grain` indices; blocks until every chunk finished.
  // Empty or reversed ranges are no-ops.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 1);

  // Like parallel_for, but with at most size() chunks and the chunk index
  // (dense in [0, chunks)) passed as the third argument so callers can index
  // per-worker scratch state (e.g. model replicas).
  void parallel_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  // True when a parallel_for issued from this thread would actually fan out
  // (more than one worker and not already inside a worker of any pool).
  bool worth_parallelizing() const;

  // Process-wide pool shared by the tensor kernels. Created on first use
  // with hardware concurrency unless set_global_threads() ran earlier.
  static ThreadPool& global();

  // Replaces the global pool (e.g. from a --threads flag). Must not be
  // called while a parallel_for on the global pool is in flight.
  static void set_global_threads(int num_threads);

 private:
  void worker_loop(int worker_index);
  void run_chunks(std::size_t begin, std::size_t end, std::size_t chunks,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& body);

  int size_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;
};

}  // namespace fedsu::util

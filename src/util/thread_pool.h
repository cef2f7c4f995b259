// Fixed-size worker pool with a chunked parallel_for and a pull queue.
//
// Design notes (DESIGN.md §"Determinism under parallelism"):
//  * parallel_for splits work into contiguous index chunks; each chunk runs
//    the same sequential loop body it would run single-threaded, so any
//    computation whose outputs are disjoint per index is bitwise identical
//    for every thread count (including 1).
//  * parallel_pull hands items out one at a time to workers that each own
//    a dense worker index (e.g. a model replica); a worker that finishes
//    early takes the next item, so uneven items leave no thread idle.
//  * Calls issued from inside a worker run inline on that worker (nested
//    calls never deadlock and never oversubscribe).
//  * The first exception thrown by any chunk or item is rethrown on the
//    caller once every worker has stopped; the pool stays usable afterwards.
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

  // Runs body(item, worker) once for every item in [0, count). Up to
  // size() workers take part, each with a worker index dense in
  // [0, min(size(), count)) that no other thread holds while the call
  // runs, so callers can index per-worker state (e.g. model replicas).
  // Workers pull item indices from a shared counter: which worker runs an
  // item depends on scheduling, so only what the item computes may enter
  // its result. After an item throws, no new item starts. On a 1-thread
  // pool or from inside a worker every item runs inline, in order, as
  // worker 0.
  void parallel_pull(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

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
  // Runs job(0) on the caller and job(1) .. job(jobs - 1) on the workers;
  // returns once all have finished, rethrowing the first exception.
  void run_jobs(std::size_t jobs,
                const std::function<void(std::size_t)>& job);

  int size_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stopping_ = false;
};

}  // namespace fedsu::util

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace fedsu::util {

namespace {
// Set while a thread is executing a pool task; nested parallel_for from a
// worker runs inline instead of re-entering the queue (no deadlock, no
// oversubscription).
thread_local bool tl_inside_worker = false;
}  // namespace

int ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) : size_(resolve_threads(num_threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  // size_ - 1 workers: the caller of parallel_for executes chunks too, so a
  // pool of size N uses exactly N threads while a region is running.
  for (int i = 0; i + 1 < size_; ++i) {
    // Worker 0 is the caller thread of parallel_for; spawned workers are 1..N.
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(int worker_index) {
  obs::Tracer::global().set_current_thread_name(
      "util.pool.worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    tl_inside_worker = true;
    job();
    tl_inside_worker = false;
  }
}

bool ThreadPool::worth_parallelizing() const {
  return size_ > 1 && !tl_inside_worker;
}

void ThreadPool::run_jobs(std::size_t jobs,
                          const std::function<void(std::size_t)>& job) {
  // Shared completion state for this region.
  struct Region {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  auto region = std::make_shared<Region>();
  region->remaining = jobs;

  auto run_one = [region, &job](std::size_t j) {
    try {
      job(j);
    } catch (...) {
      std::lock_guard<std::mutex> lock(region->mutex);
      if (!region->error) region->error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(region->mutex);
    if (--region->remaining == 0) region->done.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t j = 1; j < jobs; ++j) {
      queue_.emplace_back([run_one, j] { run_one(j); });
    }
  }
  work_ready_.notify_all();

  // The caller runs job 0, then helps drain the queue until the region is
  // finished (its remaining jobs may belong to a concurrent region — running
  // them is harmless and keeps all N threads busy).
  tl_inside_worker = true;
  run_one(0);
  for (;;) {
    std::function<void()> next;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!queue_.empty()) {
        next = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (!next) break;
    next();
  }
  tl_inside_worker = false;

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&] { return region->remaining == 0; });
  if (region->error) std::rethrow_exception(region->error);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks =
      std::min<std::size_t>(static_cast<std::size_t>(size_), (n + g - 1) / g);
  if (chunks <= 1 || !worth_parallelizing()) {
    body(begin, end);
    return;
  }
  // Chunk boundaries depend only on (n, chunks), never on scheduling, so
  // the partition is deterministic: the first n % chunks chunks get one
  // index more than the rest.
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  run_jobs(chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * base + std::min(c, extra);
    body(b, b + base + (c < extra ? 1 : 0));
  });
}

void ThreadPool::parallel_pull(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(size_), count);
  if (workers <= 1 || !worth_parallelizing()) {
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  run_jobs(workers, [&](std::size_t worker) {
    try {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        body(i, worker);
      }
    } catch (...) {
      next.store(count);  // the other workers take no new item
      throw;
    }
  });
}

namespace {
std::mutex g_global_mutex;
ThreadPool* g_global_pool = nullptr;
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) g_global_pool = new ThreadPool(0);
  return *g_global_pool;
}

void ThreadPool::set_global_threads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool) {
    if (g_global_pool->size() == resolve_threads(num_threads)) return;
    delete g_global_pool;
  }
  g_global_pool = new ThreadPool(num_threads);
}

}  // namespace fedsu::util

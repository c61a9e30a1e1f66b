#include "util/parallel_for.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "util/thread_pool.h"

namespace qvt {

namespace {

size_t HardwareDefault() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::mutex g_threads_mu;
size_t g_override_threads = 0;  // 0 = no override
// Shared pool: sized to BuildThreads() - 1 workers. Guarded by
// g_threads_mu; in-flight RunShards calls hold a shared_ptr copy, so a
// SetBuildThreads resize never destroys a pool out from under them (the
// old pool joins its workers when the last user releases it).
std::shared_ptr<ThreadPool> g_pool;
size_t g_pool_threads = 0;

std::shared_ptr<ThreadPool> PoolForWorkers(size_t workers) {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  if (g_pool == nullptr || g_pool_threads != workers) {
    g_pool = std::make_shared<ThreadPool>(workers);
    g_pool_threads = workers;
  }
  return g_pool;
}

/// Shared state of one RunShards call. Closures submitted to the pool hold a
/// shared_ptr, so the state outlives the caller even if helpers wake late.
struct ShardRun {
  explicit ShardRun(size_t total, const std::function<void(size_t)>& fn)
      : num_shards(total), shard_fn(fn) {}

  const size_t num_shards;
  const std::function<void(size_t)>& shard_fn;  // valid until done
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;
  size_t failed_shard = SIZE_MAX;  // lowest shard index that threw
  std::exception_ptr exception;

  /// Claims and runs shards until none remain. Returns the number executed
  /// by this thread.
  void DrainShards() {
    for (;;) {
      const size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) break;
      std::exception_ptr thrown;
      try {
        shard_fn(shard);
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (thrown != nullptr && shard < failed_shard) {
        failed_shard = shard;
        exception = thrown;
      }
      if (++done == num_shards) done_cv.notify_all();
    }
  }
};

}  // namespace

size_t BuildThreads() {
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    if (g_override_threads > 0) return g_override_threads;
  }
  return HardwareDefault();
}

void SetBuildThreads(size_t n) {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  g_override_threads = n;
}

namespace internal {

void RunShards(size_t num_shards, const std::function<void(size_t)>& shard) {
  if (num_shards == 0) return;
  const size_t threads = BuildThreads();
  if (threads == 1 || num_shards == 1) {
    // Inline serial path: same shards, same order, no pool — what
    // SetBuildThreads(1) runs, bit-identical by construction. The failure
    // contract also matches the parallel path: every shard is attempted,
    // then the lowest-index failure is rethrown.
    std::exception_ptr first;
    for (size_t i = 0; i < num_shards; ++i) {
      try {
        shard(i);
      } catch (...) {
        if (first == nullptr) first = std::current_exception();
      }
    }
    if (first != nullptr) std::rethrow_exception(first);
    return;
  }

  auto run = std::make_shared<ShardRun>(num_shards, shard);
  // The caller is one executor; enlist at most threads - 1 helpers (and no
  // more than the remaining shards). Helpers that wake after the caller
  // drained everything find no shard and return immediately.
  const size_t helpers = std::min(threads - 1, num_shards - 1);
  std::shared_ptr<ThreadPool> pool = PoolForWorkers(threads - 1);
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([run] { run->DrainShards(); });
  }
  run->DrainShards();
  {
    std::unique_lock<std::mutex> lock(run->mu);
    run->done_cv.wait(lock, [&] { return run->done == run->num_shards; });
    // `shard_fn` references the caller's frame; helpers past this point
    // only observe next >= num_shards and exit without touching it.
    if (run->exception != nullptr) std::rethrow_exception(run->exception);
  }
}

}  // namespace internal

}  // namespace qvt

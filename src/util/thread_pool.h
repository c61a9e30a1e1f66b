#ifndef QVT_UTIL_THREAD_POOL_H_
#define QVT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qvt {

/// Fixed-size pool of worker threads draining a FIFO task queue. Built for
/// the batch-query engine (a BatchSearcher submits one closure per worker,
/// each draining query slices, and calls Wait() for the barrier) and for
/// the parallel build pipeline's shard helpers.
///
/// A task that throws does not kill its worker: the first exception is
/// captured and rethrown by the next Wait() call, so a failed build shard
/// fails the build loudly instead of being silently dropped. Subsequent
/// exceptions (and exceptions with no Wait() before destruction) are
/// swallowed — the pool keeps running.
///
/// Thread-safe: Submit() and Wait() may be called from any thread, though
/// the intended use is a single owner submitting and waiting.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers. Pending task
  /// exceptions are discarded (destructors cannot throw).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (the queue is unbounded).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished running, then
  /// rethrows the first exception any of them threw (clearing it).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or stop
  std::condition_variable idle_cv_;   // signals Wait(): all tasks done
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_exception_;  // first task failure since last Wait
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qvt

#endif  // QVT_UTIL_THREAD_POOL_H_

#ifndef QVT_UTIL_PARALLEL_FOR_H_
#define QVT_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qvt {

/// Deterministic data-parallel helpers for the index-construction pipeline.
///
/// ## Determinism contract
///
/// Every helper decomposes its iteration space into **fixed-size shards**
/// whose boundaries depend only on (n, grain) — never on the thread count —
/// and every reduction merges per-shard partials in **shard-index order**,
/// never completion order. A computation expressed through these helpers
/// therefore produces bit-identical results at every SetBuildThreads()
/// count, including 1: the serial build *is* the parallel build run on one
/// thread. (Floating-point addition is not associative, so the shard
/// decomposition is part of the algorithm's definition; fixing it is what
/// makes suite-cache artifacts and golden tests thread-count-invariant.)
///
/// ## Scheduling
///
/// Work runs on a process-wide ThreadPool shared by all callers, sized to
/// BuildThreads() - 1 workers; the calling thread always participates by
/// claiming shards itself, so nested ParallelFor calls (e.g. a per-dimension
/// scan inside a parallel tree-partitioning task) make progress even when
/// every pool worker is busy. With BuildThreads() == 1 the pool is never
/// touched and all shards run inline on the caller.
///
/// ## Failure propagation
///
/// A shard that throws does not abort its siblings; once all shards have
/// been attempted, the exception thrown by the **lowest-index** failing
/// shard is rethrown on the calling thread (deterministic choice).
/// ParallelForStatus does the same for Status returns.

/// Number of threads the build pipeline uses: the last SetBuildThreads()
/// override, else std::thread::hardware_concurrency(). Always >= 1.
size_t BuildThreads();

/// Overrides BuildThreads(). 0 resets to the hardware default.
/// Call from a single thread before starting parallel builds (the shared
/// pool is re-created lazily on the next helper call).
void SetBuildThreads(size_t n);

namespace internal {

/// Runs `shard(0) .. shard(num_shards - 1)` across the build pool with the
/// caller participating. Shard assignment to threads is dynamic (atomic
/// claim), which is safe because shard *content* is fixed; determinism never
/// depends on which thread runs a shard. Rethrows the lowest-index shard's
/// exception after all shards finish.
void RunShards(size_t num_shards, const std::function<void(size_t)>& shard);

inline size_t NumShards(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

}  // namespace internal

/// Chunked parallel loop: calls fn(begin, end) for every shard
/// [i*grain, min((i+1)*grain, n)). `grain` must be a constant of the
/// algorithm (independent of the thread count) for determinism; pick it so
/// one shard amortizes scheduling (~tens of microseconds of work).
template <typename Fn>
void ParallelFor(size_t n, size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_shards = internal::NumShards(n, grain);
  if (num_shards == 1) {
    fn(size_t{0}, n);
    return;
  }
  internal::RunShards(num_shards, [&](size_t shard) {
    const size_t begin = shard * grain;
    const size_t end = std::min(n, begin + grain);
    fn(begin, end);
  });
}

/// Deterministic fixed-order reduction: maps every shard [begin, end) to a
/// partial with `map`, then folds the partials in ascending shard-index
/// order with `accumulator = combine(accumulator, partial)`, starting from
/// `init`. The fold is serial and ordered, so the result is independent of
/// the thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(size_t n, size_t grain, T init, MapFn&& map,
                 CombineFn&& combine) {
  if (n == 0) return init;
  if (grain == 0) grain = 1;
  const size_t num_shards = internal::NumShards(n, grain);
  if (num_shards == 1) {
    return combine(std::move(init), map(size_t{0}, n));
  }
  std::vector<std::optional<T>> partials(num_shards);
  internal::RunShards(num_shards, [&](size_t shard) {
    const size_t begin = shard * grain;
    const size_t end = std::min(n, begin + grain);
    partials[shard].emplace(map(begin, end));
  });
  for (size_t shard = 0; shard < num_shards; ++shard) {
    init = combine(std::move(init), std::move(*partials[shard]));
  }
  return init;
}

/// ParallelFor over shards returning Status: runs every shard, then returns
/// the Status of the lowest-index failed shard (OK when all succeeded).
template <typename Fn>
Status ParallelForStatus(size_t n, size_t grain, Fn&& fn) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  const size_t num_shards = internal::NumShards(n, grain);
  if (num_shards == 1) return fn(size_t{0}, n);
  std::vector<Status> statuses(num_shards);
  internal::RunShards(num_shards, [&](size_t shard) {
    const size_t begin = shard * grain;
    const size_t end = std::min(n, begin + grain);
    statuses[shard] = fn(begin, end);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

}  // namespace qvt

#endif  // QVT_UTIL_PARALLEL_FOR_H_

#include "core/batch_searcher.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/clock.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace qvt {

LatencyPercentiles LatencyPercentiles::FromStats(const SampleStats& stats) {
  LatencyPercentiles out;
  if (stats.count() == 0) return out;
  // llround, not a truncating cast: interpolated percentiles of integer
  // microsecond samples otherwise round down in one consumer and not in
  // another depending on how the cast was written.
  out.p50 = std::llround(stats.Percentile(50));
  out.p95 = std::llround(stats.Percentile(95));
  out.p99 = std::llround(stats.Percentile(99));
  out.max = std::llround(stats.Max());
  out.mean = stats.Mean();
  return out;
}

namespace {

LatencyPercentiles Percentiles(const std::vector<MethodResult>& results,
                               int64_t QueryTelemetry::* field) {
  SampleStats stats;
  for (const MethodResult& r : results) {
    stats.Add(static_cast<double>(r.telemetry.*field));
  }
  return LatencyPercentiles::FromStats(stats);
}

}  // namespace

BatchSearcher::BatchSearcher(const SearchMethod* method, size_t num_threads,
                             bool shared_scan)
    : method_(method),
      num_threads_(num_threads == 0 ? 1 : num_threads),
      shared_scan_(shared_scan) {}

StatusOr<BatchSearchResult> BatchSearcher::SearchAll(
    const Workload& queries, size_t k, const StopRule& stop) const {
  const size_t n = queries.num_queries();
  BatchSearchResult batch;
  batch.num_threads = num_threads_;
  batch.results.resize(n);

  WallClock wall;
  Stopwatch stopwatch(&wall);

  if (shared_scan_ && n > 1 && method_->SupportsSharedScan()) {
    // Chunk-major execution: dedup identical query vectors (byte-wise, so
    // only true replays coalesce), run the distinct ones through the
    // method's shared executor, fan duplicate answers back out in input
    // order. Followers copy the leader's MethodResult verbatim — same
    // neighbors, same as-if-alone telemetry.
    std::vector<std::span<const float>> unique;
    std::vector<size_t> owner(n);
    std::unordered_map<std::string_view, size_t> seen;
    unique.reserve(n);
    seen.reserve(n);
    for (size_t q = 0; q < n; ++q) {
      const std::span<const float> query = queries.Query(q);
      const std::string_view key(
          reinterpret_cast<const char*>(query.data()),
          query.size() * sizeof(float));
      const auto [it, inserted] = seen.try_emplace(key, unique.size());
      if (inserted) {
        unique.push_back(query);
      } else {
        ++batch.shared.dedup_hits;
      }
      owner[q] = it->second;
    }
    auto shared_results =
        method_->SearchShared(unique, k, stop, num_threads_, &batch.shared);
    if (!shared_results.ok()) return shared_results.status();
    for (size_t q = 0; q < n; ++q) {
      batch.results[q] = (*shared_results)[owner[q]];
    }
  } else if (num_threads_ == 1 || n <= 1) {
    // Serial fast path: same loop a caller would write around Search(),
    // preserving the paper's single-stream methodology exactly.
    for (size_t q = 0; q < n; ++q) {
      auto result = method_->Search(queries.Query(q), k, stop);
      if (!result.ok()) return result.status();
      batch.results[q] = std::move(result).value();
    }
  } else {
    std::atomic<size_t> next_query{0};
    std::mutex error_mu;
    Status first_error = Status::OK();

    ThreadPool pool(num_threads_);
    for (size_t t = 0; t < num_threads_; ++t) {
      pool.Submit([&] {
        for (;;) {
          const size_t q = next_query.fetch_add(1, std::memory_order_relaxed);
          if (q >= n) return;
          auto result = method_->Search(queries.Query(q), k, stop);
          if (!result.ok()) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = result.status();
            return;
          }
          batch.results[q] = std::move(result).value();
        }
      });
    }
    pool.Wait();
    if (!first_error.ok()) return first_error;
  }

  batch.batch_wall_micros = stopwatch.ElapsedMicros();
  batch.wall = Percentiles(batch.results, &QueryTelemetry::wall_micros);
  batch.model = Percentiles(batch.results, &QueryTelemetry::model_micros);
  for (const MethodResult& r : batch.results) {
    batch.totals += r.telemetry;
    if (r.telemetry.exact) ++batch.exact_queries;
  }
  return batch;
}

}  // namespace qvt

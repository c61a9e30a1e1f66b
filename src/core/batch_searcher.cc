#include "core/batch_searcher.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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

  WallClock wall;
  Stopwatch stopwatch(&wall);

  // Chunk-major batches dedup identical query vectors (byte-wise, so only
  // true replays coalesce): the distinct ones are planned and scanned once,
  // and each duplicate copies its leader's MethodResult verbatim (same
  // neighbors, same as-if-alone telemetry).
  const bool chunk_major =
      shared_scan_ && n > 1 && method_->SupportsSharedScan();
  std::vector<std::span<const float>> distinct;
  std::vector<size_t> owner(n);
  std::unordered_map<std::string_view, size_t> seen;
  distinct.reserve(n);
  for (size_t q = 0; q < n; ++q) {
    const std::span<const float> query = queries.Query(q);
    owner[q] = distinct.size();
    if (chunk_major) {
      const std::string_view key(reinterpret_cast<const char*>(query.data()),
                                 query.size() * sizeof(float));
      const auto [it, inserted] = seen.try_emplace(key, distinct.size());
      if (!inserted) {
        owner[q] = it->second;
        ++batch.shared.dedup_hits;
        continue;
      }
    }
    distinct.push_back(query);
  }

  // One loop over contiguous slices of the distinct queries, which workers
  // take from an atomic cursor. Chunk-major: one slice per worker, each run
  // through the method's single-threaded shared executor. Query-major: one
  // query per slice, so the cursor balances per-query cost skew (the
  // paper's giant BAG chunks make it severe, Fig. 1).
  const size_t d = distinct.size();
  const size_t slice_size =
      chunk_major ? (d + num_threads_ - 1) / num_threads_ : 1;
  const size_t num_slices = d == 0 ? 0 : (d + slice_size - 1) / slice_size;
  std::vector<MethodResult> answers(d);
  std::vector<SharedScanStats> slice_stats(chunk_major ? num_slices : 0);
  std::vector<Status> failed(num_slices);
  std::atomic<size_t> next_slice{0};
  std::atomic<bool> stop_taking{false};
  auto run_slices = [&] {
    // A failure stops every worker from taking more slices. The cursor
    // hands slices out in index order, so every slice below a failing one
    // was already taken and still completes: the lowest-index failure is
    // known once the workers return, whatever the schedule.
    while (!stop_taking.load()) {
      const size_t s = next_slice.fetch_add(1, std::memory_order_relaxed);
      if (s >= num_slices) return;
      const size_t begin = s * slice_size;
      const size_t count = std::min(d, begin + slice_size) - begin;
      Status status;
      if (chunk_major) {
        const auto slice = std::span(distinct).subspan(begin, count);
        auto got = method_->SearchShared(slice, k, stop, &slice_stats[s]);
        status = got.status();
        if (got.ok()) std::move(got->begin(), got->end(), &answers[begin]);
      } else {
        auto got = method_->Search(distinct[begin], k, stop);
        status = got.status();
        if (got.ok()) answers[begin] = std::move(got).value();
      }
      if (!status.ok()) {
        failed[s] = std::move(status);
        stop_taking.store(true);
      }
    }
  };
  const size_t workers =
      std::min(num_threads_, std::max<size_t>(1, num_slices));
  batch.num_threads = workers;
  if (workers == 1) {
    run_slices();
  } else {
    ThreadPool pool(workers);
    for (size_t t = 0; t < workers; ++t) pool.Submit(run_slices);
    pool.Wait();
  }
  for (const Status& status : failed) QVT_RETURN_IF_ERROR(status);
  for (const SharedScanStats& stats : slice_stats) batch.shared += stats;

  if (d == n) {
    batch.results = std::move(answers);
  } else {
    batch.results.resize(n);
    for (size_t q = 0; q < n; ++q) batch.results[q] = answers[owner[q]];
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

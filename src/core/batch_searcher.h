#ifndef QVT_CORE_BATCH_SEARCHER_H_
#define QVT_CORE_BATCH_SEARCHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/search_method.h"
#include "descriptor/workload.h"
#include "util/stats.h"
#include "util/statusor.h"

namespace qvt {

/// Latency distribution over the per-query times of one batch, in
/// microseconds. Per-query latency variability under concurrent load is a
/// first-class metric for cluster-based indexes (Tavenard et al.); p95/p99
/// expose the tail the mean hides.
struct LatencyPercentiles {
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
  int64_t max = 0;
  double mean = 0.0;

  /// The one way a LatencyPercentiles is derived from samples: the
  /// SampleStats linear-interpolation convention (see
  /// SampleStats::Percentile), rounded to whole microseconds. Both
  /// BatchSearcher and the bench runner's tail sweep build their reports
  /// through this helper, so small-batch percentiles agree bit-for-bit
  /// across paths. All zero when `stats` is empty.
  static LatencyPercentiles FromStats(const SampleStats& stats);

  /// p99 / p50 — the tail-amplification factor balanced chunking targets.
  /// 0 when p50 is 0.
  double TailRatio() const {
    return p50 > 0 ? static_cast<double>(p99) / static_cast<double>(p50)
                   : 0.0;
  }
};

/// Outcome of one batch: per-query results in input order plus aggregate
/// timing and the summed telemetry of every query.
struct BatchSearchResult {
  /// results[i] answers queries.Query(i), regardless of which worker ran it.
  std::vector<MethodResult> results;
  /// Wall time of the whole batch (submission to last completion).
  int64_t batch_wall_micros = 0;
  /// Distribution of per-query wall latencies.
  LatencyPercentiles wall;
  /// Distribution of per-query modeled (cost-model) latencies. Independent
  /// of the thread count: the model charges each query as if it ran alone.
  /// All zero for methods without a disk model.
  LatencyPercentiles model;
  /// Sum of the per-query QueryTelemetry records (timers and counters; the
  /// unified schema every method emits).
  QueryTelemetry totals;
  /// Coalescing ledger of the chunk-major shared-scan executor, summed over
  /// the batch's slices; all zero (enabled = false) when the batch ran
  /// query-major.
  SharedScanStats shared;
  /// Queries whose answer the method proved exact.
  size_t exact_queries = 0;
  /// Workers the batch started: min(num_threads, slices), and 1 when the
  /// calling thread ran the loop alone.
  size_t num_threads = 1;
};

/// Runs a query workload as one loop over contiguous slices of its
/// queries, on up to `num_threads` workers that take slices from a shared
/// atomic cursor. It is the one place on the search path that starts
/// threads: every SearchMethod call runs on the thread that makes it.
///
/// Drives any SearchMethod: the chunked searcher, the exact scan, or any of
/// the related-work indexes, all constructed by name through MethodRegistry.
/// The method must be Prepare()d and is then called concurrently (the
/// SearchMethod contract requires const thread-safe Search and
/// SearchShared).
///
/// Execution mode: when the method supports shared scans (chunked and
/// dynamic; pq and the other methods always run query-major) and the batch
/// has more than one query, SearchAll runs chunk-major by default.
/// Identical query vectors are deduplicated first (one plan and scan,
/// results fanned back out). The distinct queries are cut into
/// ceil(distinct / num_threads) contiguous slices, and each worker runs
/// the method's single-threaded SearchShared on its slice: every chunk a
/// slice demands is fetched, decoded and swept once for all of its queries
/// that want it. Query-major (`shared_scan = false`, the reference loop
/// `--verify` and the tests compare against) makes every query its own
/// slice, run through Search, so the cursor balances per-query cost skew
/// (the paper's giant BAG chunks make that skew severe, Fig. 1). At most
/// one worker per slice is started; with one, the calling thread runs the
/// loop and no pool is made.
///
/// Per-query results are bit-identical across modes and thread counts:
/// neighbors, counters, exact verdicts and (cache-less) model clocks, since
/// all per-query state is private and ties are broken by descriptor id.
/// Only wall-clock figures, the coalescing ledger (each slice fetches its
/// own chunks) and, with a shared ChunkCache, cache verdicts differ.
class BatchSearcher {
 public:
  /// `method` is borrowed and must outlive the batch searcher.
  BatchSearcher(const SearchMethod* method, size_t num_threads,
                bool shared_scan = true);

  /// Runs every query of `queries` for its k nearest neighbors under `stop`.
  /// Fails with the error of the lowest-index failing slice, whatever the
  /// thread count and schedule.
  StatusOr<BatchSearchResult> SearchAll(const Workload& queries, size_t k,
                                        const StopRule& stop) const;

  size_t num_threads() const { return num_threads_; }

 private:
  const SearchMethod* method_;
  size_t num_threads_;
  bool shared_scan_;
};

}  // namespace qvt

#endif  // QVT_CORE_BATCH_SEARCHER_H_

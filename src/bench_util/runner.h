#ifndef QVT_BENCH_UTIL_RUNNER_H_
#define QVT_BENCH_UTIL_RUNNER_H_

#include <vector>

#include "core/batch_searcher.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/workload.h"
#include "util/statusor.h"

namespace qvt {

/// Averaged quality-vs-effort curves of one (index, workload) pair — the
/// data behind Figures 2-5 and Table 2. Index n-1 of each `*_at` vector is
/// the average effort needed until n of the true top-k neighbors are present
/// in the intermediate result ("neighbors found", the figures' x-axis).
///
/// The chunk and cost-model axes are the paper's rule, which reads every
/// rank it reaches. The searcher passes over a chunk its bound rules out
/// (DESIGN.md "Skip, don't read"); the answers are the same, and the
/// paper's axes are rebuilt from its skip events. The `skip_` fields are
/// what the run actually read and spent.
struct QualityCurves {
  size_t k = 0;
  /// Queries (of those run) whose search eventually found n true neighbors;
  /// averages below are over exactly these queries.
  std::vector<size_t> queries_reaching;

  std::vector<double> mean_chunks_at;          ///< Figures 2 & 3
  std::vector<double> mean_model_seconds_at;   ///< Figures 4 & 5 (cost model)
  std::vector<double> mean_wall_seconds_at;    ///< host wall clock of the run
  std::vector<double> skip_mean_chunks_at;         ///< chunks actually read
  std::vector<double> skip_mean_model_seconds_at;  ///< model time spent

  /// Run-to-conclusion totals (Table 2).
  double mean_completion_model_seconds = 0.0;
  double mean_completion_wall_seconds = 0.0;
  double mean_chunks_to_completion = 0.0;
  double mean_descriptors_to_completion = 0.0;
  double skip_mean_completion_model_seconds = 0.0;
  double skip_mean_chunks_to_completion = 0.0;

  /// Precision@k of the final answer against ground truth (1.0 for exact
  /// runs; < 1.0 under approximate stop rules).
  double mean_final_precision = 0.0;
};

/// Runs every query of `workload` through `searcher` under `stop`, logging
/// intermediate results after every chunk and scoring them against `truth`.
/// The paper's measurement loop (§5.4): queries run to conclusion with
/// metrics logged after each chunk.
StatusOr<QualityCurves> RunWorkload(const Searcher& searcher,
                                    const Workload& workload,
                                    const GroundTruth& truth, size_t k,
                                    const StopRule& stop = StopRule::Exact());

/// Aggregate report of one concurrent batch run (no per-chunk curves — the
/// per-chunk observer is a serial-methodology instrument; the batch engine
/// reports throughput and tail latency instead). The per-query means below
/// reduce the unified QueryTelemetry schema, so the same report shape works
/// for every registered method.
struct BatchRunReport {
  size_t num_queries = 0;
  size_t num_threads = 1;
  double batch_wall_seconds = 0.0;
  double queries_per_second = 0.0;
  LatencyPercentiles wall;   ///< per-query wall micros
  LatencyPercentiles model;  ///< per-query cost-model micros
  /// Per-query means of the shared telemetry counters.
  double mean_probes = 0.0;
  double mean_index_entries_scanned = 0.0;
  double mean_candidates_examined = 0.0;
  double mean_descriptors_scanned = 0.0;
  double mean_bytes_read = 0.0;
  double mean_chunks_read = 0.0;
  /// cache_hits / (cache_hits + cache_misses); 0 when no cache was wired.
  double cache_hit_rate = 0.0;
  /// Population of the largest single probe any query of the batch scanned
  /// (QueryTelemetry::max_probe_rows, max-merged) — the chunk-imbalance
  /// exposure behind the wall/model p99.
  uint64_t max_probe_rows = 0;
  /// Queries whose answer the method proved exact.
  size_t exact_queries = 0;
  /// Precision@k against `truth`; 0 when no truth was supplied.
  double mean_final_precision = 0.0;
};

/// Runs every query of `workload` through a BatchSearcher over `method`
/// (already Prepare()d) with `num_threads` workers. `truth` may be null
/// (skips precision scoring). With num_threads == 1 the per-query results
/// are bit-identical to looping method.Search serially.
StatusOr<BatchRunReport> RunMethodBatch(const SearchMethod& method,
                                        const Workload& workload,
                                        const GroundTruth* truth, size_t k,
                                        const StopRule& stop,
                                        size_t num_threads);

/// One point of a quality-vs-tail-latency sweep: the batch report measured
/// under one chunk budget. Budget 0 means run to conclusion (exact stop
/// rule), anchoring the sweep's recall = 1 end.
struct TailPoint {
  size_t max_chunks = 0;
  BatchRunReport report;
};

/// The tail-latency experiment axis: runs `workload` through `method` once
/// per entry of `budgets` (each a kMaxChunks stop rule; 0 = exact) and
/// returns the delivered-quality-vs-latency-distribution points, in budget
/// order. The per-query latency spread at a fixed budget is what separates
/// balance-constrained chunking from plain k-means: equal mean, different
/// p99 (Tavenard et al.).
StatusOr<std::vector<TailPoint>> RunTailSweep(
    const SearchMethod& method, const Workload& workload,
    const GroundTruth* truth, size_t k, const std::vector<size_t>& budgets,
    size_t num_threads);

}  // namespace qvt

#endif  // QVT_BENCH_UTIL_RUNNER_H_

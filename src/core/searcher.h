#ifndef QVT_CORE_SEARCHER_H_
#define QVT_CORE_SEARCHER_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/telemetry.h"
#include "storage/chunk_cache.h"
#include "storage/disk_cost_model.h"
#include "storage/prefetcher.h"
#include "util/clock.h"
#include "util/statusor.h"

namespace qvt {

/// When to stop reading chunks (§4.3). kExact is the run-to-conclusion mode;
/// the other two are the paper's approximate stop rules.
struct StopRule {
  enum class Kind {
    /// Stop only when no unread chunk can contain a closer neighbor:
    /// k neighbors found and the minimum distance to every remaining chunk
    /// (centroid distance minus radius) exceeds the current k-th distance.
    /// Guarantees the exact result.
    kExact,
    /// Stop after reading a fixed number of chunks.
    kMaxChunks,
    /// Stop once the modeled elapsed time passes a budget (§5.7 lesson 2:
    /// "elapsed time is a more natural stop rule than the number of chunks").
    kTimeBudget,
  };

  Kind kind = Kind::kExact;
  size_t max_chunks = 0;        ///< for kMaxChunks
  int64_t budget_micros = 0;    ///< for kTimeBudget (modeled time)
  /// (1+epsilon)-approximation slack on the exact rule: stop once no unread
  /// chunk can contain a neighbor closer than kth / (1 + epsilon). This is
  /// the AC-NN idea of Ciaccia & Patella (ICDE'00) and the effect of the
  /// VA-BND's empirical bound shrinking (§6: approaches that "account for an
  /// additional epsilon value when computing the distances to chunks, making
  /// chunks somehow smaller"). 0 = exact.
  double epsilon = 0.0;

  static StopRule Exact() { return {}; }
  static StopRule MaxChunks(size_t n) {
    return {Kind::kMaxChunks, n, 0, 0.0};
  }
  static StopRule TimeBudget(int64_t micros) {
    return {Kind::kTimeBudget, 0, micros, 0.0};
  }
  static StopRule EpsilonApproximate(double epsilon) {
    return {Kind::kExact, 0, 0, epsilon};
  }
};

/// Per-chunk progress reported to the observer after each chunk is
/// processed. `result` points at the live result set (valid only during the
/// callback).
struct SearchProgress {
  size_t chunks_read = 0;            ///< chunks processed so far (>= 1)
  uint32_t chunk_descriptors = 0;    ///< population of the chunk just read
  uint64_t descriptors_processed = 0;
  int64_t model_elapsed_micros = 0;  ///< cost-model time incl. index scan
  int64_t wall_elapsed_micros = 0;   ///< real time on this host
  const KnnResultSet* result = nullptr;
};

using SearchObserver = std::function<void(const SearchProgress&)>;

/// Per-call working memory of one search. A Searcher holds no mutable state
/// of its own; callers that issue many queries from one thread pass the same
/// scratch back in to reuse its allocations, and concurrent callers simply
/// use one scratch per thread.
struct SearchScratch {
  std::vector<uint32_t> rank_order;
  std::vector<double> centroid_distance;
  std::vector<double> suffix_min_bound;
  std::vector<double> distances;    ///< per-block kernel output
  std::vector<double> wide_query;   ///< the query widened for the kernels
  /// (io, cpu) model charge of the chunk read at each rank position,
  /// replayed in rank order into the overlapped timeline.
  std::vector<std::pair<int64_t, int64_t>> charges;
  ChunkData chunk;
};

/// The one way a chunk is fetched, shared by every scan loop (Searcher's
/// k-NN and range searches, PqMethod's reranks). Through `cache` when
/// non-null: single-flight GetOrLoad, so concurrent misses on one chunk
/// share one disk read and the scan reads straight out of `*cache_ref`.
/// Otherwise ReadChunk into `buffer`. `*from_cache` reports the cache
/// verdict that decides the cost-model charge.
Status FetchChunk(const ChunkIndex& index, ChunkCache* cache,
                  uint32_t chunk_id, ChunkData* buffer,
                  std::shared_ptr<const ChunkData>* cache_ref,
                  const ChunkData** data, bool* from_cache);

/// The approximate search algorithm of §4.3 over a ChunkIndex:
///  1. compute the distance from the query to every chunk centroid and rank
///     chunks by increasing distance;
///  2. read chunks in rank order, scanning all descriptors of each chunk
///     against the query and updating the running k-NN set;
///  3. stop per the StopRule.
///
/// Elapsed time is tracked twice: on the host wall clock and on the
/// DiskCostModel (deterministic 2005-hardware timeline used by the
/// experiment figures — see DESIGN.md substitution 2).
///
/// Thread-safe: all search state lives in a per-call SearchScratch, the
/// chunk file uses positional reads, and the optional ChunkCache is
/// internally synchronized, so one Searcher may serve queries from many
/// threads concurrently (see BatchSearcher and DESIGN.md "Threading model").
class Searcher {
 public:
  /// `index` is borrowed and must outlive the searcher. `cache`, when
  /// non-null, serves chunk reads LRU-style: hits skip the chunk file and
  /// are charged CPU only by the cost model (the paper eliminated such
  /// buffering effects by round-robining queries, §5.4; passing a cache
  /// deliberately turns them back on). Every chunk is fetched synchronously
  /// through FetchChunk.
  ///
  /// The fourth parameter is unread, kept only because perfbench/ spells
  /// the 4-argument constructor.
  Searcher(const ChunkIndex* index, const DiskCostModel& cost_model,
           ChunkCache* cache = nullptr, PrefetcherOptions = {});

  /// Runs one query for the k nearest neighbors under `stop`: exactly
  /// SearchShared() over the one-query batch {query}, so the two can never
  /// disagree. `observer`, when set, is invoked after every processed chunk
  /// (for a lone query the schedule is its rank order). `scratch`, when
  /// non-null, supplies reusable working memory; pass one scratch per
  /// thread when calling concurrently.
  StatusOr<MethodResult> Search(std::span<const float> query, size_t k,
                                const StopRule& stop,
                                const SearchObserver& observer = nullptr,
                                SearchScratch* scratch = nullptr) const;

  /// The k-NN executor of §4.3 over a batch of `queries` (all for the k
  /// nearest neighbors under `stop`): every query's chunk rank order is
  /// planned up front, demands are grouped into a chunk -> pending-queries
  /// schedule, and each scheduled chunk is fetched and decoded once, then
  /// swept once for all attached queries through the fused multi-query
  /// kernels. Each query keeps its own result set, scratch, stop-rule
  /// state, and accounting, and detaches from the schedule the moment its
  /// stop rule fires, so per-query results — neighbors, chunks_read,
  /// descriptors, exact verdicts, and (cache-less) modeled times — do not
  /// depend on which other queries share the batch (see DESIGN.md
  /// "Chunk-major batched execution"). With a shared ChunkCache the one
  /// fetch per chunk makes cache verdicts (and hence modeled times) differ
  /// from the query-major interleaving, exactly as concurrent query-major
  /// batches already do.
  ///
  /// Under kMaxChunks the whole scanned set is known statically and the
  /// schedule is a single pass over the distinct demanded chunks; the other
  /// stop rules re-plan round-by-round (every live query demands its next
  /// ranked chunk, demands are coalesced, stop rules are re-checked between
  /// rounds). `num_threads` > 1 splits each chunk's attached queries across
  /// a thread pool (per-query state is disjoint, so results do not depend
  /// on the thread count). `shared`, when non-null, accumulates the batch's
  /// coalescing ledger. Per-query wall times are fair-share attributions
  /// (plan measured per query; each chunk's fetch+scan wall split evenly
  /// across its attached queries; a lone query owns the whole call).
  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, size_t num_threads = 1,
      SharedScanStats* shared = nullptr) const;

  /// Range (epsilon-neighbor) search: every stored descriptor within
  /// `radius` of `query`, ascending by distance — the query type of the BAG
  /// paper itself (Berrani et al., CIKM'03: "approximate searches:
  /// epsilon-neighbors + precision"). Chunks are scanned in centroid-rank
  /// order; kMaxChunks and kTimeBudget stop rules yield approximate
  /// (subset) answers, kExact stops once no unread chunk can intersect the
  /// query ball.
  StatusOr<MethodResult> SearchRange(std::span<const float> query,
                                     double radius, const StopRule& stop,
                                     SearchScratch* scratch = nullptr) const;

  /// Step 1 of §4.3 into `scratch`: centroid distances, rank order, and the
  /// suffix-minimum lower bounds, via one batched kernel call over the
  /// index's contiguous centroid matrix. Returns the modeled index-scan
  /// charge. Public so tests can pin the ranking bit-identical to the
  /// scalar per-centroid reference.
  int64_t RankChunks(std::span<const float> query,
                     SearchScratch& scratch) const;

  /// The chunk index this searcher scans (borrowed).
  const ChunkIndex* index() const { return index_; }

 private:
  /// The one k-NN scan loop behind Search and SearchShared. `observer` is
  /// invoked per (query, chunk) pair processed; `scratch`, when non-null,
  /// serves a lone query (otherwise each query gets its own).
  StatusOr<std::vector<MethodResult>> Execute(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, size_t num_threads, SharedScanStats* shared,
      const SearchObserver& observer, SearchScratch* scratch) const;

  /// Fills the chunked-path telemetry that follows from the per-chunk
  /// counters: plan/scan split, probes, candidates, index entries.
  void FinishTelemetry(QueryTelemetry& t) const;

  const ChunkIndex* index_;
  DiskCostModel cost_model_;
  ChunkCache* cache_;
};

}  // namespace qvt

#endif  // QVT_CORE_SEARCHER_H_

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

/// Per-rank progress reported to the observer: one event after each chunk
/// is read, and one for each rank passed over unread (`rank_skipped`).
/// A lone query's events arrive in rank order. `result` points at the live
/// result set (valid only during the callback).
struct SearchProgress {
  size_t rank = 0;                   ///< rank position of the event's chunk
  size_t chunks_read = 0;            ///< chunks read so far
  uint32_t chunk_descriptors = 0;    ///< population of the event's chunk
  uint64_t descriptors_processed = 0;
  int64_t model_elapsed_micros = 0;  ///< cost-model time incl. index scan
  int64_t wall_elapsed_micros = 0;   ///< real time on this host
  /// True when the chunk was read and charged, but its bound ruled out
  /// every row under the query's limit at sweep time, so it was not swept
  /// (QueryTelemetry::sweeps_skipped).
  bool skipped = false;
  /// True when the chunk at `rank` was not read at all: its bound ruled out
  /// every row before the fetch (QueryTelemetry::chunks_skipped). The
  /// counters and clocks above are unchanged by it; `skipped_model_micros`
  /// is what reading it uncached would have cost, so a consumer can
  /// rebuild the paper's rule, which reads every rank (RunWorkload).
  bool rank_skipped = false;
  int64_t skipped_model_micros = 0;
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
  /// The kMaxChunks plan's m closest (distance, chunk id) pairs, sorted.
  std::vector<std::pair<double, uint32_t>> closest;
  std::vector<double> suffix_min_bound;
  std::vector<double> wide_query;   ///< the query widened for the kernels
  /// (io, cpu) model charge of each chunk read, replayed in rank order
  /// into the overlapped timeline. Under kMaxChunks it is indexed by rank
  /// position and holds {-1, -1} at a rank passed over unread.
  std::vector<std::pair<int64_t, int64_t>> charges;
  ChunkData chunk;
};

/// The one way a chunk is fetched, shared by every scan loop (Searcher's
/// k-NN executor, PqMethod's reranks). Through `cache` when non-null:
/// single-flight GetOrLoad, so concurrent misses on one chunk share one
/// disk read and the scan reads straight out of `*cache_ref`. Otherwise
/// ReadChunk into `buffer`. `*from_cache` reports the cache verdict that
/// decides the cost-model charge.
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
/// A chunk whose bound shows that none of its rows can enter the result
/// set is passed over unread (DESIGN.md "Skip, don't read"): answers are
/// the paper rule's bit for bit, and only reads and the model clock fall.
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
  /// thread when calling concurrently. `excluded` (ids sorted ascending)
  /// never enter the result set (KnnResultSet's dead-id filter).
  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      const SearchObserver& observer = nullptr,
      SearchScratch* scratch = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  /// The k-NN executor of §4.3 over a batch of `queries` (all for the k
  /// nearest neighbors under `stop`): every query's chunks are ranked up
  /// front as far as `stop` can read (RankChunksBatch), demands are grouped
  /// into a chunk -> pending-queries schedule, and each scheduled chunk is
  /// fetched and decoded once, then swept once for all attached queries
  /// through the fused multi-query kernels. Each query keeps its own result set, scratch, stop-rule
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
  /// rounds). A query never demands a chunk its limit (k-th distance,
  /// capped by its bound) already rules out: under the exact and epsilon
  /// rules it passes over such a rank within the round and re-checks its
  /// stop rule; under kMaxChunks the limit is the one it starts with, its
  /// bound; under kTimeBudget it reads every rank. A skipped rank is
  /// counted in chunks_skipped and charged nothing. The call runs on the
  /// calling thread and starts none; a caller wanting threads runs
  /// disjoint query slices concurrently, as BatchSearcher does. `shared`,
  /// when non-null, accumulates the batch's coalescing ledger. Per-query
  /// wall times are fair-share attributions
  /// (the batched plan and each chunk's fetch+scan wall split evenly
  /// across the queries it served; a lone query owns the whole call).
  /// `excluded` (ids sorted ascending) is every query's dead-id filter.
  /// `bounds`, when non-empty, holds one entry per query: the caller
  /// already holds k neighbors no farther than bounds[q] (+inf: none), so
  /// query q's result set starts with that limit (KnnResultSet's `bound`).
  /// It caps the abandon threshold, the row admission and the exact and
  /// epsilon stop test; the answer is the unbounded one filtered to
  /// distance <= bounds[q], ties kept. Under kTimeBudget chunks_read and
  /// the model clock do not change; under kMaxChunks the ranks considered
  /// do not change (chunks_read + chunks_skipped), but fewer of them may be
  /// read; under the exact rule the scan may stop earlier.
  /// InvalidArgument when the size differs from the query count or an
  /// entry is negative or NaN.
  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* shared = nullptr,
      std::span<const DescriptorId> excluded = {},
      std::span<const double> bounds = {}) const;

  /// Step 1 of §4.3 into `scratch`, ranking only what `stop` can read:
  /// RankChunksBatch over the one-query batch {query}.
  int64_t RankChunks(std::span<const float> query, SearchScratch& scratch,
                     const StopRule& stop = StopRule::Exact()) const;

  /// Step 1 of §4.3 for a batch, the plan of every executor call: query i
  /// is ranked into *scratches[i] (sizes must match). One fused kernel call
  /// over the index's contiguous centroid matrix computes every query's
  /// squared centroid distances (the centroid groups are widened and
  /// transposed once for the whole batch); each query then takes their
  /// sqrt and ranks from them. Every rule gets all centroid distances, the
  /// query widened in `wide_query`, and `rank_order` as a permutation of
  /// every chunk id, ordered by (distance, chunk id):
  ///  - kExact (and epsilon): fully sorted, plus the suffix-minimum lower
  ///    bounds the stop rule reads;
  ///  - kMaxChunks(m): one selection pass puts the m closest, sorted, in
  ///    `rank_order[0..m)` (the rest is in no particular order) and
  ///    `suffix_min_bound` is empty;
  ///  - kTimeBudget: fully sorted, `suffix_min_bound` empty.
  /// A rank is a candidate read: the executor still passes over any ranked
  /// chunk its limit rules out (DESIGN.md "Skip, don't read"). The
  /// selected ranks equal the full sort's, since the order is strict,
  /// and nothing depends on which queries share the batch. Returns the
  /// modeled index-scan charge of one query, the same under every rule.
  /// Public so tests can pin the ranking bit-identical to the scalar
  /// per-centroid reference, alone and in batches.
  int64_t RankChunksBatch(std::span<const std::span<const float>> queries,
                          std::span<SearchScratch* const> scratches,
                          const StopRule& stop) const;

  /// The chunk index this searcher scans (borrowed).
  const ChunkIndex* index() const { return index_; }

 private:
  /// The one k-NN scan loop behind Search and SearchShared. `observer` is
  /// invoked per (query, rank) pair read or skipped; `scratch`, when non-null,
  /// serves a lone query (otherwise each query gets its own).
  StatusOr<std::vector<MethodResult>> Execute(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* shared,
      const SearchObserver& observer, SearchScratch* scratch,
      std::span<const DescriptorId> excluded,
      std::span<const double> bounds) const;

  /// Fills the chunked-path telemetry that follows from the per-chunk
  /// counters: plan/scan split, probes, candidates, index entries.
  void FinishTelemetry(QueryTelemetry& t) const;

  const ChunkIndex* index_;
  DiskCostModel cost_model_;
  ChunkCache* cache_;
};

}  // namespace qvt

#endif  // QVT_CORE_SEARCHER_H_

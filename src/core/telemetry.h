#ifndef QVT_CORE_TELEMETRY_H_
#define QVT_CORE_TELEMETRY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/result_set.h"

namespace qvt {

/// Elapsed time of one named query stage, tracked on both clocks the engine
/// runs against: the host wall clock and the deterministic 2005-hardware
/// cost model (DESIGN.md substitution 2). Methods with no disk cost model
/// (the memory-resident related-work indexes) leave model_micros at 0.
struct StageTimes {
  int64_t wall_micros = 0;
  int64_t model_micros = 0;

  StageTimes& operator+=(const StageTimes& other) {
    wall_micros += other.wall_micros;
    model_micros += other.model_micros;
    return *this;
  }
};

/// Batch-level ledger of the chunk-major shared-scan executor: how much
/// fetch/decode and scan work coalescing queries onto one chunk pass saved,
/// compared to every query fetching and sweeping its chunks alone. Owned by
/// the batch (the per-query QueryTelemetry stays "as-if-alone" so per-query
/// records remain comparable across execution modes); all zero when the
/// batch ran query-major.
struct SharedScanStats {
  /// True when the batch actually executed chunk-major.
  bool enabled = false;
  /// Queries that went through the shared executor (after dedup).
  uint64_t queries = 0;
  /// Duplicate queries answered by copying an identical query's result
  /// instead of planning and scanning again (replayed-trace workloads).
  uint64_t dedup_hits = 0;
  /// Distinct chunk fetch+decode operations the schedule performed.
  uint64_t chunk_fetches = 0;
  /// (chunk, query) scan pairs served. attachments - fetches is the number
  /// of fetch+decodes coalesced away versus the query-major path.
  uint64_t chunk_attachments = 0;
  /// Rows materialized once by the shared fetches (sum of chunk populations
  /// over chunk_fetches).
  uint64_t rows_fetched = 0;
  /// Row passes served out of an already-hot shared sweep: each chunk
  /// scanned for n queries contributes (n - 1) x rows.
  /// The decode/memory-traffic work the fused kernels amortize.
  uint64_t rows_scan_shared = 0;
  /// coscan_histogram[b] counts chunks scanned for n attached queries with
  /// floor(log2(n)) == b (bucket 0: alone, 1: 2-3 queries, ..., last bucket
  /// merges everything >= 128).
  static constexpr size_t kHistogramBuckets = 8;
  uint64_t coscan_histogram[kHistogramBuckets] = {};

  uint64_t chunks_coalesced() const {
    return chunk_attachments - chunk_fetches;
  }

  static size_t HistogramBucket(uint64_t coscanned) {
    size_t b = 0;
    while (coscanned > 1 && b + 1 < kHistogramBuckets) {
      coscanned >>= 1;
      ++b;
    }
    return b;
  }

  SharedScanStats& operator+=(const SharedScanStats& other) {
    enabled = enabled || other.enabled;
    queries += other.queries;
    dedup_hits += other.dedup_hits;
    chunk_fetches += other.chunk_fetches;
    chunk_attachments += other.chunk_attachments;
    rows_fetched += other.rows_fetched;
    rows_scan_shared += other.rows_scan_shared;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      coscan_histogram[b] += other.coscan_histogram[b];
    }
    return *this;
  }
};

/// One structure's share of a dynamic-index query: which immutable shard
/// (or the mutable write buffer) was searched, what it held, and what it
/// contributed to the merged top-k. Emitted only by the dynamic layer —
/// static methods leave MethodResult::shards empty.
struct ShardAttribution {
  /// `shard_id` value standing for the in-memory mutable buffer.
  static constexpr uint32_t kMutableBuffer = 0xffffffffu;
  uint32_t shard_id = 0;
  /// Level of the shard in the extension structure (0 for the buffer).
  uint32_t level = 0;
  /// Rows the structure holds (live + not-yet-purged deleted rows).
  uint64_t rows = 0;
  /// How many of the final merged top-k neighbors this structure supplied.
  uint64_t neighbors_contributed = 0;
  /// Dead rows this structure dropped: for the buffer the deleted rows that
  /// passed its admission (within the merged k-th), for a shard the dead
  /// rows its method refused at the filter (QueryTelemetry::
  /// tombstones_filtered of the shard's search). A dead row beyond the
  /// query's running bound is never offered, so it is not counted.
  uint64_t tombstones_filtered = 0;
  /// This structure's share of the query wall time.
  int64_t wall_micros = 0;
};

/// The unified per-query measurement record every SearchMethod emits — the
/// one schema BatchSearcher and the bench runner aggregate, replacing the
/// former per-method stats structs (LshStats, VaFileStats, MedrankStats,
/// PSphereStats).
///
/// Counter semantics (a method leaves fields that do not apply at 0):
///  * probes                — coarse index accesses: chunks considered for
///                            reading, LSH buckets probed, Medrank lines
///                            walked, P-Sphere spheres scanned.
///  * index_entries_scanned — fine-grained filter entries examined without
///                            touching full vectors: chunk-index centroid
///                            entries ranked, VA-file approximations,
///                            Medrank sorted accesses, sphere centers.
///  * candidates_examined   — candidates considered for exact evaluation,
///                            before dedup/pruning: chunk descriptors
///                            offered to the result set, LSH bucket members,
///                            VA-file phase-1 survivors, sphere members.
///  * descriptors_scanned   — full-vector exact distance computations.
///  * bytes_read            — bytes of stored data the query had to touch:
///                            chunk pages read * page size for the chunked
///                            method, approximation codes plus refined
///                            records for the VA-file, 100-byte records per
///                            exact distance for the memory-resident methods.
///  * chunks_read, sweeps_skipped, chunks_skipped, cache_*
///                          — chunked-path ledgers (zero elsewhere).
struct QueryTelemetry {
  // --- timers -------------------------------------------------------------
  int64_t wall_micros = 0;   ///< whole query on the host wall clock
  int64_t model_micros = 0;  ///< whole query on the cost model (0 = no model)
  /// Modeled wall time with read-ahead overlapping I/O and CPU
  /// (OverlappedScanTimeline at kModeledReadAheadDepth; reported alongside —
  /// never instead of — model_micros).
  int64_t model_overlapped_micros = 0;
  /// Per-stage split: plan (ranking / hashing / projecting the query before
  /// any candidate is touched), scan (walking the index structure and
  /// generating candidates), refine (exact-distance refinement of surviving
  /// candidates, where the method separates that phase).
  StageTimes plan;
  StageTimes scan;
  StageTimes refine;

  // --- counters -----------------------------------------------------------
  uint64_t probes = 0;
  uint64_t index_entries_scanned = 0;
  uint64_t candidates_examined = 0;
  uint64_t descriptors_scanned = 0;
  uint64_t bytes_read = 0;
  uint64_t chunks_read = 0;
  /// Chunks read for this query whose sweep was skipped because the chunk's
  /// sphere or rectangle bound exceeded the query's limit by the time the
  /// chunk was swept (Searcher's chunk-level abandon). Each is still
  /// counted in chunks_read, descriptors_scanned, bytes_read and the model
  /// clock. Only a limit that fell after the chunk was demanded leaves
  /// one: under kMaxChunks the k-th as it evolves, and under kTimeBudget,
  /// which reads every rank. Under the exact and epsilon rules the chunk
  /// is skipped unread instead, so this stays 0.
  uint64_t sweeps_skipped = 0;
  /// Ranks passed over unread because the same bound test ruled the chunk
  /// out before it was fetched (DESIGN.md "Skip, don't read"). A skipped
  /// rank is charged nothing. chunks_read + chunks_skipped is what the
  /// paper's rule reads: the stop rank under the exact and epsilon rules,
  /// min(m, chunks) under kMaxChunks(m).
  uint64_t chunks_skipped = 0;
  /// Population of the largest probe this query scanned (rows of the
  /// biggest chunk read, for the chunked method; 0 for methods without
  /// per-probe populations). The per-query exposure to chunk imbalance:
  /// under uniform chunking it equals the chunk size, under skewed
  /// chunking it is what the p99 queries choke on.
  uint64_t max_probe_rows = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Dynamic-layer counters: structures consulted for this query (immutable
  /// shards plus the mutable buffer when non-empty), and dead rows dropped:
  /// deleted buffer rows and the rows a method refused at its dead-id
  /// filter — in both cases only rows that had beaten the current k-th,
  /// capped by the query's running bound (see KnnResultSet). A dead row
  /// that would not have entered is not counted.
  /// Zero for static methods.
  uint64_t shards_searched = 0;
  uint64_t tombstones_filtered = 0;
  /// True when the method proved no better neighbor exists.
  bool exact = false;

  /// Element-wise accumulation of timers and counters — the batch aggregate
  /// over per-query records. `max_probe_rows` merges by max (the batch-wide
  /// worst probe), `exact` is a per-query verdict and is left untouched;
  /// batch consumers count exact queries themselves.
  QueryTelemetry& operator+=(const QueryTelemetry& other) {
    wall_micros += other.wall_micros;
    model_micros += other.model_micros;
    model_overlapped_micros += other.model_overlapped_micros;
    plan += other.plan;
    scan += other.scan;
    refine += other.refine;
    probes += other.probes;
    index_entries_scanned += other.index_entries_scanned;
    candidates_examined += other.candidates_examined;
    descriptors_scanned += other.descriptors_scanned;
    bytes_read += other.bytes_read;
    chunks_read += other.chunks_read;
    sweeps_skipped += other.sweeps_skipped;
    chunks_skipped += other.chunks_skipped;
    max_probe_rows = std::max(max_probe_rows, other.max_probe_rows);
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    shards_searched += other.shards_searched;
    tombstones_filtered += other.tombstones_filtered;
    return *this;
  }
};

/// Answer of one query through any search path: neighbors in ascending
/// (distance, id) order — the KnnResultSet tie-break, which every method
/// honors — plus the shared telemetry record.
struct MethodResult {
  std::vector<Neighbor> neighbors;
  QueryTelemetry telemetry;
  /// Per-structure attribution when the answer was merged across a dynamic
  /// index's buffer and shards; empty for static methods.
  std::vector<ShardAttribution> shards;
};

}  // namespace qvt

#endif  // QVT_CORE_TELEMETRY_H_

#ifndef QVT_DYNAMIC_DYNAMIC_INDEX_H_
#define QVT_DYNAMIC_DYNAMIC_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/search_method.h"
#include "descriptor/types.h"
#include "dynamic/extension.h"
#include "dynamic/mutable_buffer.h"
#include "util/env.h"
#include "util/statusor.h"

namespace qvt {

/// Everything configurable about a dynamic index. `method` names any
/// registered SearchMethod ("chunked", "exact-scan", "lsh", ...); the
/// wrapped method is what every shard is built as. The extension geometry
/// (buffer capacity, scale factor, policy) is a runtime choice and is not
/// persisted — only method, params, and dim are fixed by the manifest.
struct DynamicOptions {
  std::string method = "chunked";
  std::string method_params;
  size_t dim = kDescriptorDim;
  ExtensionConfig extension;
  /// Rows per chunk the chunked shard builder targets.
  size_t target_chunk_size = 256;
  DiskCostModel cost_model;
  /// Unread (there is no read-ahead); kept only because perfbench/ spells it.
  PrefetcherOptions prefetch;
  /// Unused (there is one open); kept because perfbench/ still sets it.
  IndexOpenMode open_mode = IndexOpenMode::kMmap;
};

/// One flush or merge, as the stats ledger records it.
struct MergeEvent {
  uint64_t epoch = 0;       ///< epoch the result was published under
  uint32_t target_level = 0;
  size_t source_shards = 0;  ///< 0 for a buffer flush
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;     ///< rows_in - rows_out were purged as deleted
  int64_t wall_micros = 0;   ///< shard build + artifact write time
  bool flush = false;        ///< buffer -> level-0 build
};

/// Writer-side counters of a dynamic index (reads are accounted in the
/// per-query telemetry, not here).
struct DynamicStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t compactions = 0;
  /// Total wall time spent building shards (flushes + merges) — the
  /// write-amplification cost the merge policy amortizes over inserts.
  int64_t build_wall_micros = 0;
  std::vector<MergeEvent> events;
};

/// The Bentley-Saxe dynamization of any registered SearchMethod: an
/// append-only MutableBuffer absorbs inserts, deletes become tombstones,
/// and a leveled structure of immutable shards (each a full Prepare()d
/// instance of the wrapped method over its subset, built through
/// MethodRegistry::BuildShard) absorbs buffer flushes through deterministic
/// merges. A query searches each shard, in seq_floor order, through the
/// wrapped method at k, handing it the ids tombstoned since the shard was
/// built (the method refuses them inside its scan — KnnResultSet's dead-id
/// filter — so no shard over-fetches and a dead row never loosens a
/// shard's abandon threshold) and its running merged k-th as the bound
/// (a shared-scan method prunes everything beyond it). The buffer is
/// scanned last, exactly and skipping deleted rows, straight into the
/// merged KnnResultSet — so the result contract ((distance, id) order,
/// tie-break) is exactly the static methods'.
///
/// Concurrency (epoch-based handoff): the entire readable state lives in an
/// immutable DynamicVersion reached through one shared_ptr. Readers copy it
/// once per query and keep the snapshot alive for the query's duration;
/// writers (serialized by one mutex) build successor versions — including
/// whole merge cascades — off to the side and publish them with a single
/// pointer swap. A small mutex guards only that copy and swap. A merge
/// therefore never blocks a reader: queries running during a merge simply
/// answer from the pre-merge version.
/// Search/SearchShared are const and thread-safe (the SearchMethod
/// contract); Insert/Delete/Flush/Compact/Save may be called concurrently
/// with queries but not with each other.
///
/// Durability: mutations are in-memory until Save(), which writes shard
/// artifacts' manifest (QVTDYN01) atomically; a crash mid-merge leaves the
/// previous manifest intact and at worst orphans unreferenced shard files.
class DynamicIndex final : public SearchMethod {
 public:
  /// A fresh, empty index rooted at path prefix `base`. Nothing is written
  /// until Save(). Fails if the wrapped method is unknown or `options` are
  /// inconsistent.
  static StatusOr<std::unique_ptr<DynamicIndex>> Create(Env* env,
                                                        std::string base,
                                                        DynamicOptions options);

  /// Reopens the index saved at `base`: loads the manifest, reloads every
  /// shard's descriptor subset, reopens artifact-backed methods from their
  /// files and rebuilds the memory-resident ones deterministically, then
  /// replays the persisted buffer rows. `options.method`, `method_params`,
  /// and `dim` are taken from the manifest; the extension geometry from
  /// `options`.
  static StatusOr<std::unique_ptr<DynamicIndex>> Open(
      Env* env, std::string base, DynamicOptions options = DynamicOptions());

  // --- mutations (serialized; callable under concurrent queries) -----------

  /// Inserts one descriptor. The id must not be live: re-using a live id
  /// fails AlreadyExists (delete it first). May trigger a flush + merge
  /// cascade when the buffer is full.
  Status Insert(DescriptorId id, std::span<const float> values,
                ImageId image = 0);

  /// Deletes a live descriptor by id; NotFound when the id is not live
  /// (never inserted, or already deleted). O(1) — a tombstone; the rows are
  /// purged by later merges.
  Status Delete(DescriptorId id);

  /// Builds a level-0 shard from the buffer (plus any merge cascade the
  /// policy triggers) and publishes the new version. No-op on an empty (or
  /// fully deleted) buffer.
  Status Flush();

  /// Folds buffer + every shard into a single shard, physically purging
  /// all deleted rows and dropping every tombstone. The compacted index
  /// holds exactly the live rows in insertion order — and therefore
  /// answers bit-identically to a static build over that collection.
  Status Compact();

  /// Persists the current version (manifest + buffer; shard artifacts are
  /// already on disk from their builds), then deletes artifact files of
  /// shards dropped by earlier merges.
  Status Save();

  // --- introspection --------------------------------------------------------

  size_t live_rows() const;
  size_t num_shards() const;
  size_t buffer_rows() const;
  size_t num_tombstones() const;
  uint64_t epoch() const;
  /// True while a writer is building a flush/merge/compaction shard — the
  /// window the bench tags query latencies with to prove merges do not
  /// block readers.
  bool MergeInProgress() const {
    return merge_in_progress_.load(std::memory_order_relaxed);
  }
  DynamicStats Stats() const;
  /// "L0: 2 shards / 120 rows | L1: 1 shard / 480 rows" — the level
  /// occupancy line qvt_tool prints.
  std::string DescribeLevels() const;
  const DynamicOptions& options() const { return options_; }
  const std::string& base() const { return base_; }

  // --- SearchMethod ---------------------------------------------------------

  std::string_view name() const override { return "dynamic"; }
  std::string Describe() const override;
  Status Prepare() override { return Status::OK(); }
  /// Search and SearchShared filter the index's own tombstones and derive
  /// their own per-query bounds; a non-empty `excluded` or `bounds` fails
  /// with InvalidArgument.
  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded = {}) const override;
  bool SupportsSharedScan() const override;
  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* stats,
      std::span<const DescriptorId> excluded = {},
      std::span<const double> bounds = {}) const override;
  size_t ResidentBytes() const override;

 private:
  DynamicIndex(Env* env, std::string base, DynamicOptions options);

  std::shared_ptr<const DynamicVersion> Snapshot() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return version_;
  }

  // All *Locked members require writer_mu_.
  Status FlushLocked();
  Status CompactLocked();
  StatusOr<std::shared_ptr<const DynamicShard>> BuildShardLocked(
      Collection rows, uint32_t level, uint64_t seq_floor, bool flush,
      size_t* event_slot);
  StatusOr<std::vector<std::shared_ptr<const DynamicShard>>>
  ExecuteMergeLocked(std::vector<std::shared_ptr<const DynamicShard>> shards,
                     const MergeOp& op, const TombstoneSet& tombstones);
  std::shared_ptr<const TombstoneSet> RetainedTombstonesLocked(
      const TombstoneSet& tombstones,
      const std::vector<std::shared_ptr<const DynamicShard>>& shards) const;
  void PublishLocked(std::shared_ptr<MutableBuffer> buffer,
                     std::vector<std::shared_ptr<const DynamicShard>> shards,
                     std::shared_ptr<const TombstoneSet> tombstones);

  Env* env_;
  std::string base_;
  DynamicOptions options_;

  /// The current readable snapshot (epoch handoff point). `version_mu_` is
  /// held only for the pointer copy (Snapshot) or swap (PublishLocked) —
  /// never across a build or a search — so readers never wait on a merge.
  mutable std::mutex version_mu_;
  std::shared_ptr<const DynamicVersion> version_;

  /// Serializes all mutations and writer-private state below.
  mutable std::mutex writer_mu_;
  std::unordered_set<DescriptorId> live_;
  uint64_t next_seq_ = 1;
  uint32_t next_shard_id_ = 0;
  /// Artifact bases of shards dropped by merges; their files are deleted
  /// at the next Save (after the manifest stops referencing them).
  std::vector<std::string> garbage_;
  DynamicStats stats_;

  std::atomic<bool> merge_in_progress_{false};
};

/// Registers the "dynamic" wrapper method (parameters: base=<path prefix>,
/// plus buffer_capacity / scale_factor / policy / chunk_size) into
/// `registry`, opening an existing saved index through the MethodContext's
/// Env. Idempotent: OK if already registered. Called explicitly by tools
/// and tests — the core registry cannot depend on this layer.
Status RegisterDynamicMethod(MethodRegistry& registry);

}  // namespace qvt

#endif  // QVT_DYNAMIC_DYNAMIC_INDEX_H_

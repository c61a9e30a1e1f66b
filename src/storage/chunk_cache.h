#ifndef QVT_STORAGE_CHUNK_CACHE_H_
#define QVT_STORAGE_CHUNK_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/chunk_file.h"
#include "util/status.h"

namespace qvt {

/// Counters of cache effectiveness. Snapshot type returned by
/// ChunkCache::Stats(); aggregated across shards.
struct ChunkCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Misses served by waiting on another thread's in-flight load instead of
  /// issuing a duplicate read (GetOrLoad single-flight coalescing).
  uint64_t single_flight_waits = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe LRU cache of materialized chunks, budgeted in pages (the unit
/// the paper's buffer manager would use; §5.4 runs queries round-robin across
/// indexes precisely "to eliminate buffering effects" — this class lets
/// experiments turn those effects back on deliberately).
///
/// The cache is split into `num_shards` independent LRU shards, each with its
/// own mutex and page budget (capacity_pages / num_shards, remainder spread
/// over the first shards). A chunk id always maps to the same shard, so
/// concurrent queries touching different chunks rarely contend. With
/// num_shards == 1 (the default) the eviction behavior is exactly the
/// classic single-list LRU, preserving serial-run reproducibility.
///
/// Get() hands out shared ownership: a returned chunk stays alive for as
/// long as the caller holds the pointer, even if another thread evicts it
/// from the cache concurrently.
class ChunkCache {
 public:
  /// `capacity_pages` bounds the total padded size of cached chunks across
  /// all shards. `num_shards` is clamped to [1, capacity_pages].
  explicit ChunkCache(uint64_t capacity_pages, size_t num_shards = 1);

  /// Returns the cached chunk for `chunk_id`, or nullptr on miss. The chunk
  /// is kept alive by the returned shared_ptr regardless of later evictions.
  std::shared_ptr<const ChunkData> Get(uint64_t chunk_id);

  /// Inserts (or refreshes) a chunk occupying `pages` padded pages. The
  /// buffer is taken by move — no descriptor data is copied. Chunks larger
  /// than their shard's whole budget are not cached. Returns the shared
  /// handle wrapping the buffer (valid even when the chunk was too large to
  /// cache), so a caller that just loaded the chunk can keep scanning it
  /// without a copy or a second lookup.
  std::shared_ptr<const ChunkData> Put(uint64_t chunk_id, ChunkData chunk,
                                       uint32_t pages);

  /// Fills `*out` with chunk `chunk_id`, loading it via `loader` on a miss.
  using ChunkLoader = std::function<Status(ChunkData* out)>;

  /// Single-flight read-through lookup. On a hit this is exactly Get(); on a
  /// miss it runs `loader` and publishes the result with Put(). Concurrent
  /// misses on the same chunk coalesce: one caller (the leader) runs the
  /// loader while the rest block and share its buffer — one disk read, not
  /// N. Every coalesced caller still counts a miss and reports
  /// `*was_hit == false`, so per-query accounting reads as if each ran
  /// alone; only the physical read is deduplicated (the coalesced callers
  /// bump `single_flight_waits` on top). A failed load publishes only the
  /// error — a partially-filled buffer never reaches the cache — and the
  /// next miss retries from scratch.
  Status GetOrLoad(uint64_t chunk_id, uint32_t pages,
                   const ChunkLoader& loader,
                   std::shared_ptr<const ChunkData>* out, bool* was_hit);

  void Clear();

  /// Aggregate counter snapshot across all shards.
  ChunkCacheStats Stats() const;

  uint64_t used_pages() const;
  uint64_t capacity_pages() const { return capacity_pages_; }
  size_t size() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t chunk_id;
    std::shared_ptr<const ChunkData> chunk;
    uint32_t pages;
  };

  /// One in-flight GetOrLoad miss; waiters block on cv until the leader
  /// publishes the loaded chunk (or the load's error) through this struct.
  struct InFlightLoad {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;               // guarded by mu
    Status status;                   // guarded by mu
    std::shared_ptr<const ChunkData> result;  // guarded by mu
  };

  struct Shard {
    mutable std::mutex mu;
    uint64_t capacity_pages = 0;
    uint64_t used_pages = 0;
    // Most-recently-used at the front. Guarded by mu.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> entries;
    // Loads currently running under GetOrLoad, keyed by chunk id. Guarded
    // by mu; the entry is erased when its leader publishes.
    std::unordered_map<uint64_t, std::shared_ptr<InFlightLoad>> loading;
    // Lock-free so hot Get() paths never serialize on stats alone.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> single_flight_waits{0};
  };

  Shard& ShardFor(uint64_t chunk_id) const;
  std::shared_ptr<const ChunkData> PutLocked(Shard& shard, uint64_t chunk_id,
                                             ChunkData chunk, uint32_t pages);
  static void EvictUntilFits(Shard& shard, uint64_t incoming_pages);

  uint64_t capacity_pages_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qvt

#endif  // QVT_STORAGE_CHUNK_CACHE_H_

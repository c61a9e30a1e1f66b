#include "storage/chunk_cache.h"

#include <algorithm>

#include "util/logging.h"

namespace qvt {

namespace {

// splitmix64 finalizer: chunk ids are small sequential integers, so a plain
// modulo would map contiguous ranks to the same shard.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ChunkCache::ChunkCache(uint64_t capacity_pages, size_t num_shards)
    : capacity_pages_(capacity_pages) {
  QVT_CHECK(capacity_pages > 0);
  num_shards = std::clamp<size_t>(num_shards, 1,
                                  static_cast<size_t>(std::min<uint64_t>(
                                      capacity_pages, 1 << 10)));
  shards_.reserve(num_shards);
  const uint64_t base = capacity_pages / num_shards;
  const uint64_t remainder = capacity_pages % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity_pages = base + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

ChunkCache::Shard& ChunkCache::ShardFor(uint64_t chunk_id) const {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[Mix(chunk_id) % shards_.size()];
}

std::shared_ptr<const ChunkData> ChunkCache::Get(uint64_t chunk_id) {
  Shard& shard = ShardFor(chunk_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(chunk_id);
  if (it == shard.entries.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // to front
  return it->second->chunk;
}

std::shared_ptr<const ChunkData> ChunkCache::Put(uint64_t chunk_id,
                                                 ChunkData chunk,
                                                 uint32_t pages) {
  Shard& shard = ShardFor(chunk_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return PutLocked(shard, chunk_id, std::move(chunk), pages);
}

std::shared_ptr<const ChunkData> ChunkCache::PutLocked(Shard& shard,
                                                       uint64_t chunk_id,
                                                       ChunkData chunk,
                                                       uint32_t pages) {
  auto handle = std::make_shared<const ChunkData>(std::move(chunk));
  if (pages > shard.capacity_pages) {
    return handle;  // would evict all for nothing; hand the buffer back
  }
  const auto it = shard.entries.find(chunk_id);
  if (it != shard.entries.end()) {
    shard.used_pages -= it->second->pages;
    shard.lru.erase(it->second);
    shard.entries.erase(it);
  }
  EvictUntilFits(shard, pages);
  shard.lru.push_front(Entry{chunk_id, handle, pages});
  shard.entries[chunk_id] = shard.lru.begin();
  shard.used_pages += pages;
  return handle;
}

Status ChunkCache::GetOrLoad(uint64_t chunk_id, uint32_t pages,
                             const ChunkLoader& loader,
                             std::shared_ptr<const ChunkData>* out,
                             bool* was_hit) {
  Shard& shard = ShardFor(chunk_id);
  std::shared_ptr<InFlightLoad> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(chunk_id);
    if (it != shard.entries.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->chunk;
      *was_hit = true;
      return Status::OK();
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    *was_hit = false;
    auto [fit, inserted] = shard.loading.try_emplace(chunk_id);
    if (inserted) {
      fit->second = std::make_shared<InFlightLoad>();
      leader = true;
    }
    flight = fit->second;
  }

  if (leader) {
    // Load without holding any lock, then publish to the cache and to the
    // waiters. On failure nothing is cached — only the error is published.
    ChunkData chunk;
    const Status load_status = loader(&chunk);
    std::shared_ptr<const ChunkData> published;
    if (load_status.ok()) {
      published = Put(chunk_id, std::move(chunk), pages);
    }
    {
      // Retire the in-flight entry after the Put so late misses either join
      // this flight or see the cached chunk — never a gap that re-reads.
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.loading.erase(chunk_id);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->status = load_status;
      flight->result = published;
      flight->done = true;
    }
    flight->cv.notify_all();
    QVT_RETURN_IF_ERROR(load_status);
    *out = std::move(published);
    return Status::OK();
  }

  // Another thread is already loading this chunk: share its one read.
  shard.single_flight_waits.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&] { return flight->done; });
  QVT_RETURN_IF_ERROR(flight->status);
  *out = flight->result;
  return Status::OK();
}

void ChunkCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->entries.clear();
    shard->used_pages = 0;
  }
}

ChunkCacheStats ChunkCache::Stats() const {
  ChunkCacheStats stats;
  for (const auto& shard : shards_) {
    stats.hits += shard->hits.load(std::memory_order_relaxed);
    stats.misses += shard->misses.load(std::memory_order_relaxed);
    stats.evictions += shard->evictions.load(std::memory_order_relaxed);
    stats.single_flight_waits +=
        shard->single_flight_waits.load(std::memory_order_relaxed);
  }
  return stats;
}

uint64_t ChunkCache::used_pages() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->used_pages;
  }
  return total;
}

size_t ChunkCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

void ChunkCache::EvictUntilFits(Shard& shard, uint64_t incoming_pages) {
  while (shard.used_pages + incoming_pages > shard.capacity_pages &&
         !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.used_pages -= victim.pages;
    shard.entries.erase(victim.chunk_id);
    shard.lru.pop_back();  // chunk outlives this via any outstanding Get ref
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace qvt

#include "dynamic/dynamic_index.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "descriptor/collection.h"
#include "dynamic/manifest.h"
#include "util/clock.h"
#include "util/status.h"

namespace qvt {
namespace {

/// Crash-recovery test hook: when QVT_DYN_CRASH is set (and not "0"), the
/// process exits hard right after a merge finished writing its shard
/// artifacts and before any manifest save could run — the worst possible
/// moment for durability. CI kills an ingest here, reopens, and fscks to
/// prove the previous manifest (and every descriptor it committed) is
/// intact.
void MaybeCrashAfterMerge() {
  const char* value = std::getenv("QVT_DYN_CRASH");
  if (value != nullptr && *value != '\0' &&
      std::string_view(value) != "0") {
    std::fflush(nullptr);
    _exit(87);
  }
}

/// Sets a flag for a scope (merge_in_progress_ around shard builds).
class ScopedFlag {
 public:
  explicit ScopedFlag(std::atomic<bool>& flag) : flag_(flag) {
    flag_.store(true, std::memory_order_relaxed);
  }
  ~ScopedFlag() { flag_.store(false, std::memory_order_relaxed); }
  ScopedFlag(const ScopedFlag&) = delete;
  ScopedFlag& operator=(const ScopedFlag&) = delete;

 private:
  std::atomic<bool>& flag_;
};

Status ValidateDynamicOptions(Env* env, const std::string& base,
                              const DynamicOptions& options) {
  if (env == nullptr) {
    return Status::InvalidArgument("dynamic index requires an Env");
  }
  if (base.empty()) {
    return Status::InvalidArgument("dynamic index requires a path prefix");
  }
  if (options.dim == 0) {
    return Status::InvalidArgument("descriptor dimension must be positive");
  }
  if (options.method == "dynamic") {
    return Status::InvalidArgument("a dynamic index cannot wrap itself");
  }
  return Status::OK();
}

size_t CollectionBytes(const Collection& data) {
  return data.size() * (data.dim() * sizeof(float) + sizeof(DescriptorId) +
                        sizeof(ImageId));
}

std::vector<DescriptorId> SortedIds(const Collection& data) {
  std::vector<DescriptorId> ids(data.Ids().begin(), data.Ids().end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

DynamicIndex::DynamicIndex(Env* env, std::string base, DynamicOptions options,
                           MethodCapabilities inner_capabilities)
    : env_(env),
      base_(std::move(base)),
      options_(std::move(options)),
      inner_capabilities_(inner_capabilities) {}

StatusOr<std::unique_ptr<DynamicIndex>> DynamicIndex::Create(
    Env* env, std::string base, DynamicOptions options) {
  QVT_RETURN_IF_ERROR(ValidateDynamicOptions(env, base, options));
  QVT_ASSIGN_OR_RETURN(MethodInfo info,
                       MethodRegistry::Global().Info(options.method));
  auto index = std::unique_ptr<DynamicIndex>(new DynamicIndex(
      env, std::move(base), std::move(options), info.capabilities));
  auto version = std::make_shared<DynamicVersion>();
  version->buffer = std::make_shared<MutableBuffer>(
      index->options_.dim, index->options_.extension.buffer_capacity,
      /*base_seq=*/1);
  version->tombstones = TombstoneSet::Empty();
  index->version_ = std::move(version);
  return index;
}

StatusOr<std::unique_ptr<DynamicIndex>> DynamicIndex::Open(
    Env* env, std::string base, DynamicOptions options) {
  if (env == nullptr) {
    return Status::InvalidArgument("dynamic index requires an Env");
  }
  QVT_ASSIGN_OR_RETURN(DynamicManifest manifest,
                       LoadDynamicManifest(env, base));
  // The identity of the index comes from the manifest; runtime knobs
  // (extension geometry, cost model) from the caller.
  options.method = manifest.method;
  options.method_params = manifest.method_params;
  options.dim = manifest.dim;
  QVT_RETURN_IF_ERROR(ValidateDynamicOptions(env, base, options));
  QVT_ASSIGN_OR_RETURN(MethodInfo info,
                       MethodRegistry::Global().Info(options.method));
  auto index = std::unique_ptr<DynamicIndex>(new DynamicIndex(
      env, std::move(base), std::move(options), info.capabilities));
  index->next_seq_ = manifest.next_seq;

  auto version = std::make_shared<DynamicVersion>();
  version->tombstones =
      manifest.tombstones.empty()
          ? TombstoneSet::Empty()
          : std::make_shared<const TombstoneSet>(std::move(manifest.tombstones));

  for (const ManifestShardRecord& record : manifest.shards) {
    auto shard = std::make_shared<DynamicShard>();
    shard->id = record.id;
    shard->level = record.level;
    shard->created_seq = record.created_seq;
    shard->seq_floor = record.seq_floor;
    shard->artifact_base = ShardArtifactBase(index->base_, record.id);
    QVT_ASSIGN_OR_RETURN(
        Collection rows,
        Collection::Load(env, shard->artifact_base + ".desc",
                         index->options_.dim));
    if (rows.size() != record.rows) {
      return Status::Corruption(
          "shard " + std::to_string(record.id) + " holds " +
          std::to_string(rows.size()) + " descriptors, manifest records " +
          std::to_string(record.rows));
    }
    ShardBuildContext context;
    context.data = std::make_shared<Collection>(std::move(rows));
    context.env = env;
    context.artifact_base = shard->artifact_base;
    // Reopen from the artifacts written at build time (the chunked method);
    // memory-resident methods rebuild deterministically from the subset.
    context.reuse_artifacts = true;
    context.target_chunk_size = index->options_.target_chunk_size;
    context.cost_model = index->options_.cost_model;
    QVT_ASSIGN_OR_RETURN(
        shard->built,
        MethodRegistry::Global().BuildShard(index->options_.method, context,
                                            index->options_.method_params));
    shard->sorted_ids = SortedIds(*shard->built.data);
    index->next_shard_id_ =
        std::max(index->next_shard_id_, record.id + 1);
    version->shards.push_back(std::move(shard));
  }
  std::sort(version->shards.begin(), version->shards.end(),
            [](const auto& a, const auto& b) {
              return a->seq_floor < b->seq_floor;
            });

  const size_t buffer_rows = manifest.buffer_rows();
  const uint64_t buffer_base_seq =
      buffer_rows > 0 ? manifest.buffer_seqs[0] : manifest.next_seq;
  version->buffer = std::make_shared<MutableBuffer>(
      index->options_.dim,
      std::max(index->options_.extension.buffer_capacity, buffer_rows),
      buffer_base_seq);
  for (size_t i = 0; i < buffer_rows; ++i) {
    version->buffer->Append(
        manifest.buffer_ids[i], manifest.buffer_images[i],
        manifest.buffer_seqs[i],
        std::span<const float>(
            manifest.buffer_values.data() + i * index->options_.dim,
            index->options_.dim));
  }

  // A descriptor is live iff its newest row survives its tombstone (there
  // is at most one live row per id at any time, so the union is exact).
  const TombstoneSet& tombstones = *version->tombstones;
  for (const auto& shard : version->shards) {
    for (DescriptorId id : shard->sorted_ids) {
      if (tombstones.SeqFor(id) <= shard->created_seq) {
        index->live_.insert(id);
      }
    }
  }
  for (size_t i = 0; i < buffer_rows; ++i) {
    if (tombstones.SeqFor(manifest.buffer_ids[i]) <= manifest.buffer_seqs[i]) {
      index->live_.insert(manifest.buffer_ids[i]);
    }
  }

  index->version_ = std::move(version);
  return index;
}

// --- mutations --------------------------------------------------------------

Status DynamicIndex::Insert(DescriptorId id, std::span<const float> values,
                            ImageId image) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  QVT_RETURN_IF_ERROR(ValidateQuery(values, options_.dim));
  if (live_.count(id) > 0) {
    return Status::AlreadyExists("descriptor id " + std::to_string(id) +
                                 " is live; delete it before re-inserting");
  }
  auto version = Snapshot();
  if (version->buffer->committed() >= version->buffer->capacity()) {
    QVT_RETURN_IF_ERROR(FlushLocked());
    version = Snapshot();
  }
  version->buffer->Append(id, image, next_seq_++, values);
  live_.insert(id);
  ++stats_.inserts;
  return Status::OK();
}

Status DynamicIndex::Delete(DescriptorId id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (live_.count(id) == 0) {
    return Status::NotFound("descriptor id " + std::to_string(id) +
                            " is not live");
  }
  auto version = Snapshot();
  auto tombstones = version->tombstones->With(id, next_seq_++);
  live_.erase(id);
  ++stats_.deletes;
  PublishLocked(version->buffer, version->shards, std::move(tombstones));
  return Status::OK();
}

Status DynamicIndex::Flush() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto version = Snapshot();
  if (version->buffer->committed() == 0) return Status::OK();
  return FlushLocked();
}

Status DynamicIndex::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CompactLocked();
}

Status DynamicIndex::FlushLocked() {
  ScopedFlag in_merge(merge_in_progress_);
  auto version = Snapshot();
  const MutableBuffer& buffer = *version->buffer;
  const TombstoneSet& tombstones = *version->tombstones;
  const size_t rows = buffer.committed();

  Collection live(options_.dim);
  live.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (tombstones.SeqFor(buffer.id(i)) > buffer.seq(i)) continue;
    live.Append(buffer.id(i), buffer.Vector(i), buffer.image(i));
  }

  std::vector<std::shared_ptr<const DynamicShard>> shards = version->shards;
  if (!live.empty()) {
    size_t event_slot = 0;
    QVT_ASSIGN_OR_RETURN(
        std::shared_ptr<const DynamicShard> shard,
        BuildShardLocked(std::move(live), /*level=*/0, buffer.base_seq(),
                         /*flush=*/true, &event_slot));
    shards.push_back(std::move(shard));
    ++stats_.flushes;

    std::vector<ShardGeometry> geometry;
    geometry.reserve(shards.size());
    for (const auto& s : shards) {
      geometry.push_back({s->id, s->level, s->rows(), s->seq_floor});
    }
    // The planner numbers the shards its simulated merges create starting
    // at max(id)+1 — which is exactly next_shard_id_ here, and each
    // executed op consumes exactly one id (even when the merge output is
    // empty), so planned and executed shard ids stay aligned across the
    // cascade.
    for (const MergeOp& op :
         PlanMergeCascade(options_.extension, std::move(geometry))) {
      QVT_ASSIGN_OR_RETURN(
          shards, ExecuteMergeLocked(std::move(shards), op, tombstones));
    }
  }

  auto retained = RetainedTombstonesLocked(tombstones, shards);
  auto fresh = std::make_shared<MutableBuffer>(
      options_.dim, options_.extension.buffer_capacity, next_seq_);
  PublishLocked(std::move(fresh), std::move(shards), std::move(retained));
  return Status::OK();
}

Status DynamicIndex::CompactLocked() {
  ScopedFlag in_merge(merge_in_progress_);
  auto version = Snapshot();
  const TombstoneSet& tombstones = *version->tombstones;

  Collection all(options_.dim);
  uint64_t rows_in = 0;
  uint64_t seq_floor = UINT64_MAX;
  size_t sources = 0;
  // version->shards is sorted by ascending seq_floor and shard seq ranges
  // never interleave, so appending shard rows in that order — buffer rows
  // last — reproduces global insertion order. That is what makes the
  // compacted index answer identically to a static build.
  for (const auto& shard : version->shards) {
    rows_in += shard->rows();
    seq_floor = std::min(seq_floor, shard->seq_floor);
    const Collection& data = *shard->built.data;
    for (size_t i = 0; i < data.size(); ++i) {
      if (tombstones.SeqFor(data.Id(i)) > shard->created_seq) continue;
      all.Append(data.Id(i), data.Vector(i), data.Image(i));
    }
    garbage_.push_back(shard->artifact_base);
    ++sources;
  }
  const MutableBuffer& buffer = *version->buffer;
  const size_t buffer_rows = buffer.committed();
  rows_in += buffer_rows;
  seq_floor = std::min(seq_floor, buffer.base_seq());
  for (size_t i = 0; i < buffer_rows; ++i) {
    if (tombstones.SeqFor(buffer.id(i)) > buffer.seq(i)) continue;
    all.Append(buffer.id(i), buffer.Vector(i), buffer.image(i));
  }

  std::vector<std::shared_ptr<const DynamicShard>> shards;
  if (!all.empty()) {
    // Park the compacted shard at the shallowest level whose capacity
    // holds it, so the next flush does not immediately re-merge it.
    uint32_t level = 0;
    while (all.size() > LevelCapacity(options_.extension, level)) ++level;
    size_t event_slot = 0;
    QVT_ASSIGN_OR_RETURN(
        std::shared_ptr<const DynamicShard> shard,
        BuildShardLocked(std::move(all), level, seq_floor, /*flush=*/false,
                         &event_slot));
    stats_.events[event_slot].source_shards = sources;
    stats_.events[event_slot].rows_in = rows_in;
    shards.push_back(std::move(shard));
  }
  ++stats_.compactions;

  auto fresh = std::make_shared<MutableBuffer>(
      options_.dim, options_.extension.buffer_capacity, next_seq_);
  // Every surviving row now postdates every tombstone: drop them all.
  PublishLocked(std::move(fresh), std::move(shards), TombstoneSet::Empty());
  return Status::OK();
}

StatusOr<std::shared_ptr<const DynamicShard>> DynamicIndex::BuildShardLocked(
    Collection rows, uint32_t level, uint64_t seq_floor, bool flush,
    size_t* event_slot) {
  WallClock clock;
  Stopwatch watch(&clock);
  const uint32_t shard_id = next_shard_id_++;
  auto shard = std::make_shared<DynamicShard>();
  shard->id = shard_id;
  shard->level = level;
  shard->seq_floor = seq_floor;
  shard->artifact_base = ShardArtifactBase(base_, shard_id);
  // The descriptor subset is persisted at build time — before any manifest
  // references it — so a manifest, once renamed in, never points at missing
  // data.
  QVT_RETURN_IF_ERROR(rows.Save(env_, shard->artifact_base + ".desc"));
  ShardBuildContext context;
  context.data = std::make_shared<Collection>(std::move(rows));
  context.env = env_;
  context.artifact_base = shard->artifact_base;
  context.reuse_artifacts = false;
  context.target_chunk_size = options_.target_chunk_size;
  context.cost_model = options_.cost_model;
  QVT_ASSIGN_OR_RETURN(shard->built,
                       MethodRegistry::Global().BuildShard(
                           options_.method, context, options_.method_params));
  // Allocated after the build: every tombstone with a smaller seq has been
  // physically applied, so at query time only tombstones newer than
  // created_seq can kill this shard's rows.
  shard->created_seq = next_seq_++;
  shard->sorted_ids = SortedIds(*shard->built.data);

  auto version = Snapshot();
  MergeEvent event;
  event.epoch = version->epoch + 1;
  event.target_level = level;
  event.rows_in = shard->rows();
  event.rows_out = shard->rows();
  event.wall_micros = watch.ElapsedMicros();
  event.flush = flush;
  stats_.build_wall_micros += event.wall_micros;
  *event_slot = stats_.events.size();
  stats_.events.push_back(event);
  return std::shared_ptr<const DynamicShard>(std::move(shard));
}

StatusOr<std::vector<std::shared_ptr<const DynamicShard>>>
DynamicIndex::ExecuteMergeLocked(
    std::vector<std::shared_ptr<const DynamicShard>> shards, const MergeOp& op,
    const TombstoneSet& tombstones) {
  // Collect sources in the op's (ascending seq_floor) order. A missing id
  // means an earlier merge in the cascade produced an empty shard; merging
  // the remaining sources is still correct.
  std::vector<std::shared_ptr<const DynamicShard>> sources;
  for (uint32_t id : op.source_shard_ids) {
    for (const auto& shard : shards) {
      if (shard->id == id) {
        sources.push_back(shard);
        break;
      }
    }
  }
  if (sources.empty()) return shards;

  Collection merged(options_.dim);
  uint64_t rows_in = 0;
  uint64_t seq_floor = UINT64_MAX;
  for (const auto& source : sources) {
    rows_in += source->rows();
    seq_floor = std::min(seq_floor, source->seq_floor);
    const Collection& data = *source->built.data;
    for (size_t i = 0; i < data.size(); ++i) {
      // Physically purge rows whose tombstone postdates the source shard.
      if (tombstones.SeqFor(data.Id(i)) > source->created_seq) continue;
      merged.Append(data.Id(i), data.Vector(i), data.Image(i));
    }
  }
  for (const auto& source : sources) {
    garbage_.push_back(source->artifact_base);
    std::erase_if(shards, [&](const auto& shard) {
      return shard->id == source->id;
    });
  }

  if (!merged.empty()) {
    size_t event_slot = 0;
    QVT_ASSIGN_OR_RETURN(
        std::shared_ptr<const DynamicShard> shard,
        BuildShardLocked(std::move(merged), op.target_level, seq_floor,
                         /*flush=*/false, &event_slot));
    stats_.events[event_slot].source_shards = sources.size();
    stats_.events[event_slot].rows_in = rows_in;
    shards.push_back(std::move(shard));
  } else {
    // Consume the shard id the planner assigned this merge anyway, to keep
    // later ops in the same cascade pointing at the right shards.
    ++next_shard_id_;
    auto version = Snapshot();
    MergeEvent event;
    event.epoch = version->epoch + 1;
    event.target_level = op.target_level;
    event.source_shards = sources.size();
    event.rows_in = rows_in;
    event.rows_out = 0;
    event.flush = false;
    stats_.events.push_back(event);
  }
  ++stats_.merges;
  MaybeCrashAfterMerge();
  return shards;
}

std::shared_ptr<const TombstoneSet> DynamicIndex::RetainedTombstonesLocked(
    const TombstoneSet& tombstones,
    const std::vector<std::shared_ptr<const DynamicShard>>& shards) const {
  if (tombstones.empty()) return TombstoneSet::Empty();
  // A tombstone still has work to do only while some shard built before it
  // still physically holds the id; everything else has been purged by the
  // merges and can be dropped. (Called post-flush, so the buffer is empty.)
  std::vector<std::pair<DescriptorId, uint64_t>> retained;
  for (const auto& [id, seq] : tombstones.entries()) {
    for (const auto& shard : shards) {
      if (shard->created_seq < seq && shard->ContainsId(id)) {
        retained.emplace_back(id, seq);
        break;
      }
    }
  }
  if (retained.empty()) return TombstoneSet::Empty();
  return std::make_shared<const TombstoneSet>(std::move(retained));
}

void DynamicIndex::PublishLocked(
    std::shared_ptr<MutableBuffer> buffer,
    std::vector<std::shared_ptr<const DynamicShard>> shards,
    std::shared_ptr<const TombstoneSet> tombstones) {
  std::sort(shards.begin(), shards.end(), [](const auto& a, const auto& b) {
    return a->seq_floor < b->seq_floor;
  });
  auto current = Snapshot();
  auto next = std::make_shared<DynamicVersion>();
  next->epoch = current->epoch + 1;
  next->buffer = std::move(buffer);
  next->shards = std::move(shards);
  next->tombstones = std::move(tombstones);
  // The single handoff: readers that took the old version finish on it
  // undisturbed; new queries see the successor. The old version is released
  // (with `current`) after the lock, so freeing it never blocks a reader.
  std::shared_ptr<const DynamicVersion> retired = std::move(next);
  {
    std::lock_guard<std::mutex> lock(version_mu_);
    version_.swap(retired);
  }
}

Status DynamicIndex::Save() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto version = Snapshot();
  DynamicManifest manifest;
  manifest.dim = static_cast<uint32_t>(options_.dim);
  manifest.next_seq = next_seq_;
  manifest.method = options_.method;
  manifest.method_params = options_.method_params;
  for (const auto& shard : version->shards) {
    manifest.shards.push_back({shard->id, shard->level, shard->created_seq,
                               shard->seq_floor, shard->rows()});
  }
  manifest.tombstones = version->tombstones->entries();
  const MutableBuffer& buffer = *version->buffer;
  const size_t rows = buffer.committed();
  manifest.buffer_ids.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    manifest.buffer_ids.push_back(buffer.id(i));
    manifest.buffer_images.push_back(buffer.image(i));
    manifest.buffer_seqs.push_back(buffer.seq(i));
    const std::span<const float> values = buffer.Vector(i);
    manifest.buffer_values.insert(manifest.buffer_values.end(), values.begin(),
                                  values.end());
  }
  QVT_RETURN_IF_ERROR(SaveDynamicManifest(env_, base_, manifest));
  // The renamed manifest no longer references the merged-away shards;
  // their artifacts are garbage now and only now.
  for (const std::string& artifact_base : garbage_) {
    for (const char* suffix : {".desc", ".desc.img", ".chunks", ".index"}) {
      const Status status = env_->DeleteFile(artifact_base + suffix);
      if (!status.ok() && !status.IsNotFound()) return status;
    }
  }
  garbage_.clear();
  return Status::OK();
}

// --- introspection ----------------------------------------------------------

size_t DynamicIndex::live_rows() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return live_.size();
}

size_t DynamicIndex::num_shards() const { return Snapshot()->shards.size(); }

size_t DynamicIndex::buffer_rows() const {
  return Snapshot()->buffer->committed();
}

size_t DynamicIndex::num_tombstones() const {
  return Snapshot()->tombstones->size();
}

uint64_t DynamicIndex::epoch() const { return Snapshot()->epoch; }

DynamicStats DynamicIndex::Stats() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return stats_;
}

std::string DynamicIndex::DescribeLevels() const {
  auto version = Snapshot();
  std::map<uint32_t, std::pair<size_t, uint64_t>> levels;  // count, rows
  for (const auto& shard : version->shards) {
    levels[shard->level].first += 1;
    levels[shard->level].second += shard->rows();
  }
  std::ostringstream out;
  bool first = true;
  for (const auto& [level, stats] : levels) {
    if (!first) out << " | ";
    first = false;
    out << "L" << level << ": " << stats.first
        << (stats.first == 1 ? " shard / " : " shards / ") << stats.second
        << " rows";
  }
  if (first) out << "no shards";
  return out.str();
}

std::string DynamicIndex::Describe() const {
  auto version = Snapshot();
  uint64_t shard_rows = 0;
  for (const auto& shard : version->shards) shard_rows += shard->rows();
  std::ostringstream out;
  out << "dynamic(" << options_.method << "): " << version->shards.size()
      << " shard(s) / " << shard_rows << " rows + buffer "
      << version->buffer->committed() << "/" << version->buffer->capacity()
      << ", " << version->tombstones->size() << " tombstones, "
      << (options_.extension.policy == MergePolicy::kTiering ? "tiering"
                                                             : "leveling")
      << " x" << options_.extension.scale_factor;
  return out.str();
}

MethodCapabilities DynamicIndex::capabilities() const {
  MethodCapabilities capabilities = inner_capabilities_;
  capabilities.range_search = false;  // not offered through the wrapper
  return capabilities;
}

size_t DynamicIndex::ResidentBytes() const {
  auto version = Snapshot();
  size_t bytes = version->buffer->ResidentBytes();
  bytes += version->tombstones->size() *
           sizeof(std::pair<DescriptorId, uint64_t>);
  for (const auto& shard : version->shards) {
    bytes += shard->built.method->ResidentBytes();
    bytes += CollectionBytes(*shard->built.data);
    bytes += shard->sorted_ids.size() * sizeof(DescriptorId);
  }
  return bytes;
}

// --- query path -------------------------------------------------------------

uint64_t DynamicIndex::MergeShardResult(const DynamicShard& shard,
                                        const TombstoneSet& tombstones,
                                        std::span<const Neighbor> neighbors,
                                        KnnResultSet* set) {
  uint64_t filtered = 0;
  for (const Neighbor& neighbor : neighbors) {
    if (tombstones.SeqFor(neighbor.id) > shard.created_seq) {
      ++filtered;
      continue;
    }
    set->Insert(neighbor.id, neighbor.distance);
  }
  return filtered;
}

namespace {

/// Finds which structure a final neighbor's live row sits in: the buffer
/// attribution slot, or the slot of the one shard holding it live. There is
/// at most one live row per id, so the answer is unique.
ShardAttribution* AttributionFor(
    DescriptorId id, const DynamicVersion& version,
    const TombstoneSet& tombstones, size_t buffer_rows,
    std::vector<ShardAttribution>& slots) {
  size_t slot = 0;
  if (buffer_rows > 0) {
    const MutableBuffer& buffer = *version.buffer;
    for (size_t i = 0; i < buffer_rows; ++i) {
      if (buffer.id(i) == id && tombstones.SeqFor(id) <= buffer.seq(i)) {
        return &slots[0];
      }
    }
    slot = 1;
  }
  for (const auto& shard : version.shards) {
    if (tombstones.SeqFor(id) <= shard->created_seq && shard->ContainsId(id)) {
      return &slots[slot];
    }
    ++slot;
  }
  return nullptr;
}

}  // namespace

StatusOr<MethodResult> DynamicIndex::Search(std::span<const float> query,
                                            size_t k,
                                            const StopRule& stop) const {
  QVT_ASSIGN_OR_RETURN(std::vector<MethodResult> results,
                       SearchShared({&query, 1}, k, stop, /*num_threads=*/1,
                                    /*stats=*/nullptr));
  return std::move(results.front());
}

bool DynamicIndex::SupportsSharedScan() const { return true; }

StatusOr<std::vector<MethodResult>> DynamicIndex::SearchShared(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, size_t num_threads, SharedScanStats* stats) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  for (const auto& query : queries) {
    QVT_RETURN_IF_ERROR(ValidateQuery(query, options_.dim));
  }
  auto version = Snapshot();
  WallClock clock;
  Stopwatch call_watch(&clock);
  const TombstoneSet& tombstones = *version->tombstones;
  // Over-fetch per shard so that even if every tombstone kills a returned
  // neighbor, k live candidates survive. With no tombstones (post-
  // compaction), k_eff == k and the wrapped search is untouched.
  const size_t k_eff = k + tombstones.size();
  const size_t num_queries = queries.size();

  std::vector<MethodResult> results(num_queries);
  std::vector<KnnResultSet> sets;
  sets.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) sets.emplace_back(k);
  std::vector<char> exact(num_queries, 1);

  const MutableBuffer& buffer = *version->buffer;
  const size_t buffer_rows = buffer.committed();
  std::vector<uint64_t> row_tombstones(buffer_rows);
  for (size_t i = 0; i < buffer_rows; ++i) {
    row_tombstones[i] = tombstones.SeqFor(buffer.id(i));
  }
  if (buffer_rows > 0) {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      Stopwatch part(&clock);
      const uint64_t filtered = buffer.Scan(queries[qi], buffer_rows,
                                            row_tombstones, &sets[qi],
                                            &results[qi].telemetry);
      ShardAttribution attribution;
      attribution.shard_id = ShardAttribution::kMutableBuffer;
      attribution.rows = buffer_rows;
      attribution.tombstones_filtered = filtered;
      attribution.wall_micros = part.ElapsedMicros();
      results[qi].telemetry.tombstones_filtered += filtered;
      results[qi].shards.push_back(attribution);
    }
  }

  for (const auto& shard : version->shards) {
    std::vector<MethodResult> subs;
    if (shard->built.method->SupportsSharedScan()) {
      // The wrapped shared scan is bit-identical to per-query Search by
      // contract, so the merged dynamic answer is too.
      QVT_ASSIGN_OR_RETURN(subs, shard->built.method->SearchShared(
                                     queries, k_eff, stop, num_threads, stats));
    } else {
      subs.reserve(num_queries);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        QVT_ASSIGN_OR_RETURN(
            MethodResult sub, shard->built.method->Search(queries[qi], k_eff,
                                                          stop));
        subs.push_back(std::move(sub));
      }
    }
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const uint64_t filtered =
          MergeShardResult(*shard, tombstones, subs[qi].neighbors, &sets[qi]);
      exact[qi] = exact[qi] && subs[qi].telemetry.exact;
      results[qi].telemetry += subs[qi].telemetry;
      results[qi].telemetry.tombstones_filtered += filtered;
      ShardAttribution attribution;
      attribution.shard_id = shard->id;
      attribution.level = shard->level;
      attribution.rows = shard->rows();
      attribution.tombstones_filtered = filtered;
      attribution.wall_micros = subs[qi].telemetry.wall_micros;
      results[qi].shards.push_back(attribution);
    }
  }

  for (size_t qi = 0; qi < num_queries; ++qi) {
    results[qi].neighbors = sets[qi].Sorted();
    for (const Neighbor& neighbor : results[qi].neighbors) {
      ShardAttribution* slot = AttributionFor(
          neighbor.id, *version, tombstones, buffer_rows, results[qi].shards);
      if (slot != nullptr) ++slot->neighbors_contributed;
    }
    results[qi].telemetry.exact = exact[qi] != 0;
    results[qi].telemetry.shards_searched = results[qi].shards.size();
  }
  // A lone query owns the whole call's wall time.
  if (num_queries == 1) {
    results[0].telemetry.wall_micros = call_watch.ElapsedMicros();
  }
  return results;
}

// --- registry wrapper -------------------------------------------------------

Status RegisterDynamicMethod(MethodRegistry& registry) {
  if (registry.Contains("dynamic")) return Status::OK();
  MethodInfo info;
  info.name = "dynamic";
  info.summary =
      "Bentley-Saxe extension layer: opens the saved dynamic index at "
      "base=<prefix>, serving any wrapped method's shards behind a mutable "
      "buffer";
  // Static flags are conservative; a constructed instance reports the
  // wrapped method's real capabilities.
  info.capabilities = {false, false, true, false};
  return registry.Register(
      std::move(info),
      [](const MethodContext& context,
         MethodOptions& options) -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_ASSIGN_OR_RETURN(std::string base, options.GetString("base", ""));
        QVT_ASSIGN_OR_RETURN(size_t buffer_capacity,
                             options.GetSize("buffer_capacity", 1024));
        QVT_ASSIGN_OR_RETURN(size_t scale_factor,
                             options.GetSize("scale_factor", 4));
        QVT_ASSIGN_OR_RETURN(std::string policy,
                             options.GetString("policy", "tiering"));
        QVT_ASSIGN_OR_RETURN(size_t chunk_size,
                             options.GetSize("chunk_size", 256));
        if (base.empty()) {
          return Status::InvalidArgument(
              "the dynamic method requires base=<path prefix of a saved "
              "dynamic index>");
        }
        if (context.env == nullptr) {
          return Status::InvalidArgument(
              "the dynamic method requires an Env in the method context");
        }
        DynamicOptions dynamic_options;
        dynamic_options.extension.buffer_capacity = buffer_capacity;
        dynamic_options.extension.scale_factor = scale_factor;
        if (policy == "tiering") {
          dynamic_options.extension.policy = MergePolicy::kTiering;
        } else if (policy == "leveling") {
          dynamic_options.extension.policy = MergePolicy::kLeveling;
        } else {
          return Status::InvalidArgument("unknown merge policy '" + policy +
                                         "' (tiering|leveling)");
        }
        dynamic_options.target_chunk_size = chunk_size;
        dynamic_options.cost_model = context.cost_model;
        QVT_ASSIGN_OR_RETURN(
            std::unique_ptr<DynamicIndex> index,
            DynamicIndex::Open(context.env, base, std::move(dynamic_options)));
        return std::unique_ptr<SearchMethod>(std::move(index));
      });
}

}  // namespace qvt

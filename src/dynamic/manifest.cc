#include "dynamic/manifest.h"

#include <algorithm>
#include <cstring>

#include "core/chunk_index.h"
#include "descriptor/collection.h"
#include "storage/format.h"

namespace qvt {

namespace {

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// Header field offsets (64 bytes total; bytes 56..63 are reserved zeros).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffDim = 12;
constexpr size_t kOffNumShards = 16;
constexpr size_t kOffNumTombstones = 20;
constexpr size_t kOffBufferRows = 24;
constexpr size_t kOffNextSeq = 32;
constexpr size_t kOffTablesOff = 40;
constexpr size_t kOffBufferOff = 48;

/// Strings in the config section are length-prefixed; cap them so a
/// corrupt length cannot drive a huge allocation.
constexpr uint32_t kMaxConfigStringBytes = 4096;

}  // namespace

std::string DynamicManifestPath(const std::string& base) {
  return base + ".dyn";
}

std::string ShardArtifactBase(const std::string& base, uint32_t shard_id) {
  return base + ".shard-" + std::to_string(shard_id);
}

Status SaveDynamicManifest(Env* env, const std::string& base,
                           const DynamicManifest& manifest) {
  if (manifest.dim == 0) {
    return Status::InvalidArgument("dynamic manifest requires dim > 0");
  }
  const size_t rows = manifest.buffer_rows();
  if (manifest.buffer_images.size() != rows ||
      manifest.buffer_seqs.size() != rows ||
      manifest.buffer_values.size() != rows * manifest.dim) {
    return Status::InvalidArgument(
        "dynamic manifest buffer arrays are inconsistent");
  }
  if (manifest.method.size() > kMaxConfigStringBytes ||
      manifest.method_params.size() > kMaxConfigStringBytes) {
    return Status::InvalidArgument("dynamic manifest config strings too long");
  }

  const uint64_t config_bytes =
      2 * sizeof(uint32_t) + manifest.method.size() +
      manifest.method_params.size();
  const uint64_t tables_off = AlignUp(kFormatHeaderBytes + config_bytes);
  const uint64_t tables_bytes =
      manifest.shards.size() * kDynamicShardRecordBytes +
      manifest.tombstones.size() * kDynamicTombstoneRecordBytes;
  const uint64_t buffer_off = AlignUp(tables_off + tables_bytes);

  const std::string path = DynamicManifestPath(base);
  QVT_ASSIGN_OR_RETURN(FormatWriter writer,
                       FormatWriter::Create(env, path, kDynamicMagic));

  uint8_t header[kFormatHeaderBytes] = {};
  PutU64(header + kOffMagic, kDynamicMagic);
  PutU32(header + kOffVersion, kDynamicFormatVersion);
  PutU32(header + kOffDim, manifest.dim);
  PutU32(header + kOffNumShards,
         static_cast<uint32_t>(manifest.shards.size()));
  PutU32(header + kOffNumTombstones,
         static_cast<uint32_t>(manifest.tombstones.size()));
  PutU32(header + kOffBufferRows, static_cast<uint32_t>(rows));
  PutU64(header + kOffNextSeq, manifest.next_seq);
  PutU64(header + kOffTablesOff, tables_off);
  PutU64(header + kOffBufferOff, buffer_off);
  QVT_RETURN_IF_ERROR(writer.Append(header, sizeof(header)));

  // Config section (starts right after the 64-byte header).
  uint8_t lengths[2 * sizeof(uint32_t)];
  PutU32(lengths, static_cast<uint32_t>(manifest.method.size()));
  PutU32(lengths + sizeof(uint32_t),
         static_cast<uint32_t>(manifest.method_params.size()));
  QVT_RETURN_IF_ERROR(writer.Append(lengths, sizeof(lengths)));
  QVT_RETURN_IF_ERROR(
      writer.Append(manifest.method.data(), manifest.method.size()));
  QVT_RETURN_IF_ERROR(writer.Append(manifest.method_params.data(),
                                    manifest.method_params.size()));

  // Tables section: shard records then tombstone records, back to back.
  QVT_ASSIGN_OR_RETURN(const uint64_t actual_tables_off,
                       writer.BeginSection());
  if (actual_tables_off != tables_off) {
    return Status::Internal("dynamic manifest tables offset drifted");
  }
  for (const ManifestShardRecord& shard : manifest.shards) {
    uint8_t record[kDynamicShardRecordBytes] = {};
    PutU32(record, shard.id);
    PutU32(record + 4, shard.level);
    PutU64(record + 8, shard.created_seq);
    PutU64(record + 16, shard.seq_floor);
    PutU64(record + 24, shard.rows);
    QVT_RETURN_IF_ERROR(writer.Append(record, sizeof(record)));
  }
  for (const auto& [id, seq] : manifest.tombstones) {
    uint8_t record[kDynamicTombstoneRecordBytes] = {};
    PutU32(record, id);
    PutU64(record + 8, seq);
    QVT_RETURN_IF_ERROR(writer.Append(record, sizeof(record)));
  }

  // Buffer section: the un-flushed rows.
  QVT_ASSIGN_OR_RETURN(const uint64_t actual_buffer_off,
                       writer.BeginSection());
  if (actual_buffer_off != buffer_off) {
    return Status::Internal("dynamic manifest buffer offset drifted");
  }
  std::vector<uint8_t> record(DynamicBufferRowBytes(manifest.dim));
  for (size_t i = 0; i < rows; ++i) {
    PutU32(record.data(), manifest.buffer_ids[i]);
    PutU32(record.data() + 4, manifest.buffer_images[i]);
    PutU64(record.data() + 8, manifest.buffer_seqs[i]);
    std::memcpy(record.data() + 16,
                manifest.buffer_values.data() + i * manifest.dim,
                manifest.dim * sizeof(float));
    QVT_RETURN_IF_ERROR(writer.Append(record.data(), record.size()));
  }

  return writer.Finish();
}

StatusOr<DynamicManifest> LoadDynamicManifest(Env* env,
                                              const std::string& base) {
  const std::string path = DynamicManifestPath(base);
  // A missing manifest is NotFound on every Env (the posix file open would
  // report IoError) — callers distinguish "no index saved here yet" from a
  // real read failure.
  if (!env->FileExists(path)) {
    return Status::NotFound("no dynamic manifest: " + path);
  }
  QVT_ASSIGN_OR_RETURN(std::unique_ptr<MemoryMappedFile> file,
                       env->NewMemoryMappedFile(path));
  const FormatView view({file->data(), file->size()}, path);
  QVT_RETURN_IF_ERROR(
      view.CheckEnvelope(kDynamicMagic, kDynamicFormatVersion));
  QVT_RETURN_IF_ERROR(view.VerifyCrc());

  const uint8_t* header = view.data();
  DynamicManifest manifest;
  manifest.dim = LoadU32(header + kOffDim);
  const uint32_t num_shards = LoadU32(header + kOffNumShards);
  const uint32_t num_tombstones = LoadU32(header + kOffNumTombstones);
  const uint32_t buffer_rows = LoadU32(header + kOffBufferRows);
  manifest.next_seq = LoadU64(header + kOffNextSeq);
  const uint64_t tables_off = LoadU64(header + kOffTablesOff);
  const uint64_t buffer_off = LoadU64(header + kOffBufferOff);
  if (manifest.dim == 0) {
    return view.CorruptionAt(kOffDim, "dynamic manifest dim is zero");
  }
  if (manifest.next_seq == 0) {
    return view.CorruptionAt(kOffNextSeq, "dynamic manifest next_seq is zero");
  }

  // Config section.
  QVT_ASSIGN_OR_RETURN(
      const uint8_t* lengths,
      view.Section(kFormatHeaderBytes, 2, sizeof(uint32_t), "dynamic config"));
  const uint32_t method_len = LoadU32(lengths);
  const uint32_t params_len = LoadU32(lengths + sizeof(uint32_t));
  if (method_len == 0 || method_len > kMaxConfigStringBytes ||
      params_len > kMaxConfigStringBytes) {
    return view.CorruptionAt(kFormatHeaderBytes,
                             "dynamic config string length out of range");
  }
  QVT_ASSIGN_OR_RETURN(
      const uint8_t* config,
      view.Section(kFormatHeaderBytes, 1,
                   2 * sizeof(uint32_t) + method_len + params_len,
                   "dynamic config"));
  manifest.method.assign(
      reinterpret_cast<const char*>(config + 2 * sizeof(uint32_t)),
      method_len);
  manifest.method_params.assign(
      reinterpret_cast<const char*>(config + 2 * sizeof(uint32_t)) +
          method_len,
      params_len);

  // Tables section.
  const uint64_t tables_bytes =
      uint64_t{num_shards} * kDynamicShardRecordBytes +
      uint64_t{num_tombstones} * kDynamicTombstoneRecordBytes;
  QVT_ASSIGN_OR_RETURN(
      const uint8_t* tables,
      view.Section(tables_off, tables_bytes, 1, "dynamic tables"));
  manifest.shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    const uint8_t* record = tables + i * kDynamicShardRecordBytes;
    ManifestShardRecord shard;
    shard.id = LoadU32(record);
    shard.level = LoadU32(record + 4);
    shard.created_seq = LoadU64(record + 8);
    shard.seq_floor = LoadU64(record + 16);
    shard.rows = LoadU64(record + 24);
    if (shard.rows == 0) {
      return view.CorruptionAt(tables_off + i * kDynamicShardRecordBytes,
                               "dynamic shard record with zero rows");
    }
    if (shard.created_seq >= manifest.next_seq ||
        shard.seq_floor > shard.created_seq) {
      return view.CorruptionAt(tables_off + i * kDynamicShardRecordBytes,
                               "dynamic shard record seq out of range");
    }
    for (const ManifestShardRecord& existing : manifest.shards) {
      if (existing.id == shard.id) {
        return view.CorruptionAt(tables_off + i * kDynamicShardRecordBytes,
                                 "duplicate dynamic shard id");
      }
    }
    manifest.shards.push_back(shard);
  }
  const uint8_t* tombstones =
      tables + uint64_t{num_shards} * kDynamicShardRecordBytes;
  manifest.tombstones.reserve(num_tombstones);
  for (uint32_t i = 0; i < num_tombstones; ++i) {
    const uint8_t* record = tombstones + i * kDynamicTombstoneRecordBytes;
    const DescriptorId id = LoadU32(record);
    const uint64_t seq = LoadU64(record + 8);
    if (seq == 0 || seq >= manifest.next_seq) {
      return view.CorruptionAt(tables_off, "dynamic tombstone seq invalid");
    }
    if (!manifest.tombstones.empty() &&
        manifest.tombstones.back().first >= id) {
      return view.CorruptionAt(tables_off,
                               "dynamic tombstones not sorted by id");
    }
    manifest.tombstones.push_back({id, seq});
  }

  // Buffer section.
  QVT_ASSIGN_OR_RETURN(const uint8_t* buffer,
                       view.Section(buffer_off, buffer_rows,
                                    DynamicBufferRowBytes(manifest.dim),
                                    "dynamic buffer"));
  manifest.buffer_ids.reserve(buffer_rows);
  manifest.buffer_values.reserve(uint64_t{buffer_rows} * manifest.dim);
  for (uint32_t i = 0; i < buffer_rows; ++i) {
    const uint8_t* record = buffer + i * DynamicBufferRowBytes(manifest.dim);
    manifest.buffer_ids.push_back(LoadU32(record));
    manifest.buffer_images.push_back(LoadU32(record + 4));
    const uint64_t seq = LoadU64(record + 8);
    if (seq == 0 || seq >= manifest.next_seq) {
      return view.CorruptionAt(buffer_off, "dynamic buffer row seq invalid");
    }
    manifest.buffer_seqs.push_back(seq);
    const size_t old = manifest.buffer_values.size();
    manifest.buffer_values.resize(old + manifest.dim);
    std::memcpy(manifest.buffer_values.data() + old, record + 16,
                manifest.dim * sizeof(float));
  }

  return manifest;
}

Status FsckDynamic(Env* env, const std::string& base) {
  QVT_ASSIGN_OR_RETURN(const DynamicManifest manifest,
                       LoadDynamicManifest(env, base));
  for (const ManifestShardRecord& shard : manifest.shards) {
    const std::string shard_base = ShardArtifactBase(base, shard.id);
    QVT_ASSIGN_OR_RETURN(
        const Collection data,
        Collection::Load(env, shard_base + ".desc", manifest.dim));
    if (data.size() != shard.rows) {
      return Status::Corruption(
          "dynamic shard " + std::to_string(shard.id) + " holds " +
          std::to_string(data.size()) + " rows; manifest records " +
          std::to_string(shard.rows));
    }
    if (manifest.method == "chunked") {
      const ChunkIndexPaths paths = ChunkIndexPaths::ForBase(shard_base);
      QVT_ASSIGN_OR_RETURN(const ChunkIndex index,
                           ChunkIndex::Open(env, paths, manifest.dim));
      QVT_RETURN_IF_ERROR(index.Validate());
      if (index.total_descriptors() != shard.rows) {
        return Status::Corruption(
            "dynamic shard " + std::to_string(shard.id) +
            " chunk index holds " +
            std::to_string(index.total_descriptors()) +
            " descriptors; manifest records " + std::to_string(shard.rows));
      }
    }
  }
  return Status::OK();
}

}  // namespace qvt

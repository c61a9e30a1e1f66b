#ifndef QVT_DYNAMIC_MANIFEST_H_
#define QVT_DYNAMIC_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "descriptor/types.h"
#include "util/env.h"
#include "util/statusor.h"

namespace qvt {

// The QVTDYN01 level manifest — the durable root of a dynamic index, in the
// shared format envelope (storage/format.h):
//
//   [ 64 B header ]  magic "QVTDYN01", version, dim, counts, next_seq,
//                    section offsets
//   [ config    ]    u32 method_len, u32 params_len, the two strings
//   [ tables    ]    num_shards x 32 B shard records (id, level,
//                    created_seq, seq_floor, rows) followed by
//                    num_tombstones x 16 B tombstone records (id, pad, seq)
//   [ buffer    ]    buffer_rows x (16 + 4*dim) B row records (id, image,
//                    seq, values) — the un-flushed mutable buffer
//   [ 16 B footer ]  crc32 + magic echo
//
// The manifest is written temp + atomic-rename (FormatWriter), so a crash
// mid-save leaves the previous manifest intact; shard artifact files are
// written before the manifest that references them, so a freshly renamed
// manifest never points at missing data. Shard artifacts live next to the
// manifest as "<base>.shard-<id>.desc[.img]" (+ ".chunks"/".index" for the
// chunked method).

inline constexpr uint64_t kDynamicMagic = 0x31304e5944545651ull;  // QVTDYN01
inline constexpr uint32_t kDynamicFormatVersion = 1;
inline constexpr size_t kDynamicShardRecordBytes = 32;
inline constexpr size_t kDynamicTombstoneRecordBytes = 16;

/// Bytes of one persisted buffer row: id, image, seq, then dim floats.
inline constexpr size_t DynamicBufferRowBytes(size_t dim) {
  return 2 * sizeof(uint32_t) + sizeof(uint64_t) + dim * sizeof(float);
}

/// Manifest path of the dynamic index rooted at path prefix `base`.
std::string DynamicManifestPath(const std::string& base);

/// Artifact path prefix of shard `shard_id` ("<base>.shard-<id>").
std::string ShardArtifactBase(const std::string& base, uint32_t shard_id);

/// One shard as recorded in the manifest.
struct ManifestShardRecord {
  uint32_t id = 0;
  uint32_t level = 0;
  uint64_t created_seq = 0;
  uint64_t seq_floor = 0;
  uint64_t rows = 0;
};

/// The decoded manifest: everything needed to reopen the index exactly as
/// saved (modulo shard artifact files, loaded separately).
struct DynamicManifest {
  uint32_t dim = 0;
  uint64_t next_seq = 1;
  std::string method;
  std::string method_params;
  std::vector<ManifestShardRecord> shards;
  /// Sorted by id (the TombstoneSet invariant).
  std::vector<std::pair<DescriptorId, uint64_t>> tombstones;
  /// Un-flushed buffer rows, in append order; values is rows * dim floats.
  std::vector<DescriptorId> buffer_ids;
  std::vector<ImageId> buffer_images;
  std::vector<uint64_t> buffer_seqs;
  std::vector<float> buffer_values;

  size_t buffer_rows() const { return buffer_ids.size(); }
};

/// Writes the manifest for the index at `base` (temp + atomic rename).
Status SaveDynamicManifest(Env* env, const std::string& base,
                           const DynamicManifest& manifest);

/// Reads and fully validates (CRC + structural invariants) the manifest at
/// `base`. The manifest is small, so the load always checksums; the big
/// shard artifacts check their entries on open and leave the CRC to
/// FsckDynamic.
StatusOr<DynamicManifest> LoadDynamicManifest(Env* env,
                                              const std::string& base);

/// Integrity check of the whole dynamic index at `base`: manifest envelope,
/// CRC, record invariants (seqs below next_seq, tombstones sorted), then
/// every shard's artifacts — the descriptor file must hold exactly the
/// recorded row count, and for the chunked method the chunk index is opened
/// and deep-validated (ChunkIndex::Validate). Returns the first problem
/// found.
Status FsckDynamic(Env* env, const std::string& base);

}  // namespace qvt

#endif  // QVT_DYNAMIC_MANIFEST_H_

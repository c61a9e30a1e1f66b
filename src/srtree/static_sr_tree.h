#ifndef QVT_SRTREE_STATIC_SR_TREE_H_
#define QVT_SRTREE_STATIC_SR_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "srtree/sr_tree.h"
#include "storage/format.h"
#include "util/env.h"
#include "util/statusor.h"

namespace qvt {

/// Static SR-tree file format "QVTSRT01", version 1 (little endian, shared
/// envelope of storage/format.h). The tree is serialized in level order —
/// node 0 is the root, every node's children sit at higher indices — with
/// fixed-size records throughout, so a mapping is searchable as-is:
///
///   header (64 bytes):
///     0  u64 magic            "QVTSRT01"
///     8  u32 format version   1
///     12 u32 dim
///     16 u64 num_nodes        > 0
///     24 u64 num_entries
///     32 u64 num_leaves
///     40 u64 num_points
///     48 u32 leaf_capacity
///     52 u32 internal_fanout
///     56 f64 min_fill
///   node section (64-aligned): num_nodes × 24-byte records
///     0  u32 is_leaf (0/1), 4 u32 parent (0xffffffff for the root),
///     8  u64 first_entry, 16 u64 num_entries   — entries are contiguous
///   entry section (64-aligned): num_entries × (12*dim + 32)-byte records
///     0          f32 centroid[dim]   (== the point itself in a leaf entry)
///     4*dim      f32 rect_lo[dim]
///     8*dim      f32 rect_hi[dim]
///     12*dim     f64 radius          (memcpy-read: 4-mod-8 offset at odd dim)
///     12*dim+8   u64 count
///     12*dim+16  u64 position        (collection position; leaf entries)
///     12*dim+24  u32 child           (node id; 0xffffffff in leaf entries)
///     12*dim+28  u32 reserved        0
///   leaf directory (64-aligned): num_leaves × 8-byte records in chunk
///     order — record i maps chunk ordinal i to its leaf's node id
///     (level order visits leaves by depth, not chunk order, so the
///     directory is explicit): 0 u32 node, 4 u32 reserved (0)
///   footer (16 bytes): u32 crc32 of [0, footer_off), u32 reserved,
///     u64 magic echo
///
/// Section offsets are derived from the header counts (nodes at 64, each
/// later section at the next 64-aligned offset), so they are not stored.
inline constexpr uint64_t kSrTreeMagic = 0x3130545253545651ull;  // "QVTSRT01"
inline constexpr uint32_t kSrTreeFormatVersion = 1;

inline constexpr size_t kSrTreeNodeBytes = 24;
inline constexpr size_t kSrTreeLeafDirBytes = 8;
inline constexpr size_t SrTreeEntryBytes(size_t dim) {
  return 12 * dim + 32;
}
static_assert(SrTreeEntryBytes(24) == 320);

/// Entry id meaning "no node": root's parent, leaf entries' child.
inline constexpr uint32_t kSrTreeNoNode = 0xffffffffu;

/// Parsed copy of the header words.
struct SrTreeFileHeader {
  uint32_t version = 0;
  uint32_t dim = 0;
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  uint64_t num_leaves = 0;
  uint64_t num_points = 0;
  uint32_t leaf_capacity = 0;
  uint32_t internal_fanout = 0;
  double min_fill = 0.0;
};

/// Derived section offsets for a given header.
struct SrTreeFileLayout {
  uint64_t nodes_off = 0;
  uint64_t entries_off = 0;
  uint64_t leaf_dir_off = 0;
  uint64_t footer_off = 0;

  static SrTreeFileLayout For(const SrTreeFileHeader& h);
};

/// Zero-copy static SR-tree: searches the node/entry records straight out
/// of the mapped file, no Collection required — a leaf entry's
/// centroid IS its point, so leaf distances are exact. NearestNeighbors
/// returns results bit-identical to SrTree::NearestNeighbors on the tree
/// that was saved. Move-only.
class StaticSrTree {
 public:
  /// Opens the file at `path`: maps it (Env::NewMemoryMappedFile), then
  /// checks the envelope, the section geometry and the structure
  /// (ValidateStructure). The whole-file CRC is the separate VerifyCrc.
  static StatusOr<StaticSrTree> Open(Env* env, const std::string& path);

  StaticSrTree(StaticSrTree&&) = default;
  StaticSrTree& operator=(StaticSrTree&&) = default;

  const SrTreeFileHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  size_t dim() const { return header_.dim; }
  size_t num_nodes() const { return header_.num_nodes; }
  size_t num_leaves() const { return header_.num_leaves; }
  size_t num_points() const { return header_.num_points; }

  /// Exact k nearest neighbors, bit-identical to the in-memory tree's
  /// branch-and-bound (same lower bounds, same tie handling).
  std::vector<SrNeighbor> NearestNeighbors(std::span<const float> query,
                                           size_t k) const;

  /// Point positions of every leaf in chunk order (via the leaf directory)
  /// — the static twin of SrTree::LeafPartitions.
  std::vector<std::vector<size_t>> LeafPartitions() const;

  /// CRC over the whole payload (fsck and SrTree::LoadStatic run it), and
  /// the structural invariants Open runs (entry ranges in bounds,
  /// child/parent links consistent, leaf directory covers exactly the
  /// leaves, point count adds up).
  Status VerifyCrc() const;
  Status ValidateStructure() const;

  // Record accessors (decode via the memcpy readers of storage/format.h).
  // Public so SrTree::LoadStatic and fsck can walk the records without a
  // second decoder.
  struct NodeRef {
    bool is_leaf;
    uint32_t parent;
    uint64_t first_entry;
    uint64_t num_entries;
  };
  NodeRef node(uint64_t i) const;
  const uint8_t* entry(uint64_t e) const {
    return entries_ + e * SrTreeEntryBytes(header_.dim);
  }
  std::span<const float> entry_centroid(uint64_t e) const {
    return {reinterpret_cast<const float*>(entry(e)), header_.dim};
  }
  std::span<const float> entry_rect_lo(uint64_t e) const {
    return {reinterpret_cast<const float*>(entry(e)) + header_.dim,
            header_.dim};
  }
  std::span<const float> entry_rect_hi(uint64_t e) const {
    return {reinterpret_cast<const float*>(entry(e)) + 2 * header_.dim,
            header_.dim};
  }
  double entry_radius(uint64_t e) const {
    return LoadF64(entry(e) + 12 * header_.dim);
  }
  uint64_t entry_count(uint64_t e) const {
    return LoadU64(entry(e) + 12 * header_.dim + 8);
  }
  uint64_t entry_position(uint64_t e) const {
    return LoadU64(entry(e) + 12 * header_.dim + 16);
  }
  uint32_t entry_child(uint64_t e) const {
    return LoadU32(entry(e) + 12 * header_.dim + 24);
  }
  uint32_t leaf_dir_node(uint64_t i) const {
    return LoadU32(leaf_dir_ + i * kSrTreeLeafDirBytes);
  }

 private:
  StaticSrTree(std::unique_ptr<MemoryMappedFile> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  /// Lower bound on distance from `query` to any point under entry `e`
  /// (max of sphere and rectangle bounds — same math as
  /// SrTree::EntryMinDistance, so search order and results match).
  double EntryMinDistance(uint64_t e, std::span<const float> query) const;

  std::unique_ptr<MemoryMappedFile> file_;
  std::string path_;
  SrTreeFileHeader header_;
  const uint8_t* nodes_ = nullptr;
  const uint8_t* entries_ = nullptr;
  const uint8_t* leaf_dir_ = nullptr;
};

}  // namespace qvt

#endif  // QVT_SRTREE_STATIC_SR_TREE_H_

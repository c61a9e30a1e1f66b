#ifndef QVT_STORAGE_INDEX_FILE_H_
#define QVT_STORAGE_INDEX_FILE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "geometry/sphere.h"
#include "storage/chunk_file.h"
#include "storage/format.h"
#include "util/env.h"
#include "util/status.h"
#include "util/statusor.h"

namespace qvt {

/// One entry of the chunk index (§4.2): the chunk's centroid, its radius,
/// and where it lives in the chunk file. Entry order matches chunk order in
/// the chunk file. This is the build-side/materialized representation; on
/// disk the three fields live in separate column sections (see below).
struct ChunkIndexEntry {
  Sphere bounds;           ///< centroid + minimum bounding radius
  ChunkLocation location;  ///< placement in the chunk file
};

/// Chunk index file format "QVTIDX01", version 1 (little endian, see
/// storage/format.h for the shared envelope):
///
///   header (64 bytes):
///     0  u64 magic            "QVTIDX01"
///     8  u32 format version   1
///     12 u32 dim
///     16 u64 num_chunks       > 0
///     24 u64 centroids_off    64-aligned; f32[num_chunks * dim]
///     32 u64 radii_off        64-aligned; f64[num_chunks]
///     40 u64 directory_off    64-aligned; ChunkLocation[num_chunks] (16 B)
///     48 u64 footer_off       == file size - 16
///     56 u64 reserved         0
///   sections at the declared offsets, zero-padded gaps between them
///   footer (16 bytes): u32 crc32 of [0, footer_off), u32 reserved,
///     u64 magic echo
///
/// Columns instead of packed per-entry records buy two things: the centroid
/// matrix is directly the contiguous row-major input the batched SIMD
/// kernels scan (zero-copy from a mapping), and every f64 radius sits in an
/// 8-byte-aligned section regardless of dim parity.
inline constexpr uint64_t kIndexMagic = 0x3130584449545651ull;  // "QVTIDX01"
inline constexpr uint32_t kIndexFormatVersion = 1;

/// Logical payload bytes one entry contributes across the three column
/// sections. (Equal to the packed-record size of format v0, which had no
/// header: f32[dim] + f64 + u64 + u32 + u32.)
inline constexpr size_t IndexEntryBytes(size_t dim) {
  return dim * sizeof(float) + sizeof(double) + sizeof(ChunkLocation);
}
static_assert(IndexEntryBytes(24) == 120);
static_assert(IndexEntryBytes(1) == 28);

// The directory section is read by casting mapped bytes, so the record
// layout must be exactly the three packed little-endian words.
static_assert(std::is_trivially_copyable_v<ChunkLocation>);
static_assert(sizeof(ChunkLocation) == 16, "no padding in ChunkLocation");
static_assert(offsetof(ChunkLocation, first_page) == 0);
static_assert(offsetof(ChunkLocation, num_pages) == 8);
static_assert(offsetof(ChunkLocation, num_descriptors) == 12);

/// Parsed copy of the header words.
struct IndexFileHeader {
  uint32_t version = 0;
  uint32_t dim = 0;
  uint64_t num_chunks = 0;
  uint64_t centroids_off = 0;
  uint64_t radii_off = 0;
  uint64_t directory_off = 0;
  uint64_t footer_off = 0;
};

/// Zero-copy view of one index file: owns the mapping and exposes the
/// column sections as typed spans pointing straight into it. Move-only;
/// spans stay valid across moves.
class IndexFileView {
 public:
  /// Validates the envelope, the section geometry and every entry of
  /// `file` (ValidateEntries; O(num_chunks), the columns a query ranks
  /// anyway) and takes ownership. The whole-file CRC is the separate
  /// VerifyCrc. `expected_dim` guards against opening an index built for a
  /// different descriptor type.
  static StatusOr<IndexFileView> Open(std::unique_ptr<MemoryMappedFile> file,
                                      std::string path, size_t expected_dim);

  IndexFileView(IndexFileView&&) = default;
  IndexFileView& operator=(IndexFileView&&) = default;

  size_t dim() const { return header_.dim; }
  size_t num_chunks() const { return header_.num_chunks; }
  const IndexFileHeader& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Row-major num_chunks × dim matrix, base 64-byte-aligned — feeds the
  /// SIMD scan kernels without a copy.
  std::span<const float> centroids() const {
    return {centroids_, header_.num_chunks * header_.dim};
  }
  std::span<const double> radii() const {
    return {radii_, header_.num_chunks};
  }
  std::span<const ChunkLocation> locations() const {
    return {locations_, header_.num_chunks};
  }

  /// CRC over the whole payload — run by fsck, ChunkIndex::Validate and
  /// ReadIndexFile, not by Open. ValidateEntries checks the per-entry
  /// invariants (finite non-negative radius, non-empty extent and
  /// population); Open runs it.
  Status VerifyCrc() const;
  Status ValidateEntries() const;

 private:
  IndexFileView(std::unique_ptr<MemoryMappedFile> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  std::unique_ptr<MemoryMappedFile> file_;
  std::string path_;
  IndexFileHeader header_;
  const float* centroids_ = nullptr;
  const double* radii_ = nullptr;
  const ChunkLocation* locations_ = nullptr;
};

/// Writes the whole index file in one shot: to `path + ".tmp"`, then an
/// atomic rename onto `path`, so a crash never leaves a torn index behind.
Status WriteIndexFile(Env* env, const std::string& path, size_t dim,
                      const std::vector<ChunkIndexEntry>& entries);

/// Opens the index file at `path`: maps it (Env::NewMemoryMappedFile) and
/// runs IndexFileView::Open's envelope and per-entry checks.
StatusOr<IndexFileView> OpenIndexFile(Env* env, const std::string& path,
                                      size_t dim);

/// Reads the whole index file into materialized entries (open + VerifyCrc
/// + copy).
StatusOr<std::vector<ChunkIndexEntry>> ReadIndexFile(Env* env,
                                                     const std::string& path,
                                                     size_t dim);

}  // namespace qvt

#endif  // QVT_STORAGE_INDEX_FILE_H_

#ifndef QVT_CORE_CHUNK_INDEX_H_
#define QVT_CORE_CHUNK_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/chunker.h"
#include "descriptor/collection.h"
#include "storage/chunk_file.h"
#include "storage/index_file.h"
#include "util/env.h"
#include "util/statusor.h"

namespace qvt {

/// File names of a chunk index rooted at `base_path`.
struct ChunkIndexPaths {
  std::string chunk_file;  ///< the padded, page-aligned descriptor chunks
  std::string index_file;  ///< centroid + radius + location per chunk

  /// base_path + ".chunks" / ".index".
  static ChunkIndexPaths ForBase(const std::string& base_path);
};

/// There is one way to open an index: map the file and check its entries.
/// The enum remains only because perfbench/ still passes kMmap.
enum class IndexOpenMode { kMmap };

/// The two-file chunk index of §4.2: a chunk file holding the descriptors
/// grouped by chunk (each chunk contiguous and padded to whole pages) and an
/// index file with one entry per chunk — centroid coordinates, radius, and
/// location — in chunk-file order.
///
/// The index file is the versioned column format of storage/index_file.h;
/// all accessors below are spans into the opened IndexFileView, so an
/// opened index holds no per-chunk heap state at all — centroids, radii,
/// and locations are read straight from the mapping (shared, demand-paged).
class ChunkIndex {
 public:
  /// Builds a chunk index from a chunking result: computes each chunk's
  /// centroid and exact minimum bounding radius, writes both files
  /// (atomically — temp + rename), and returns the index re-opened from
  /// what was written. `chunking.outliers` are simply not written.
  static StatusOr<ChunkIndex> Build(const Collection& collection,
                                    const ChunkingResult& chunking, Env* env,
                                    const ChunkIndexPaths& paths);

  /// Opens an existing index: maps the index file and checks its envelope
  /// and every entry (OpenIndexFile), then opens the chunk file. Open time
  /// is charged to the BuildStats phase "index.open". The IndexOpenMode
  /// parameter is unused; it stays so existing callers keep compiling.
  static StatusOr<ChunkIndex> Open(Env* env, const ChunkIndexPaths& paths,
                                   size_t dim = kDescriptorDim,
                                   IndexOpenMode = IndexOpenMode::kMmap);

  ChunkIndex(ChunkIndex&&) noexcept = default;
  ChunkIndex& operator=(ChunkIndex&&) noexcept = default;

  size_t num_chunks() const { return view_.num_chunks(); }
  size_t dim() const { return view_.dim(); }

  /// Centroid of chunk `i` (row i of centroid_matrix()).
  std::span<const float> centroid(size_t i) const {
    return view_.centroids().subspan(i * dim(), dim());
  }
  /// Minimum bounding radius of chunk `i`.
  double radius(size_t i) const { return view_.radii()[i]; }
  /// Placement of chunk `i` in the chunk file.
  const ChunkLocation& location(size_t i) const {
    return view_.locations()[i];
  }
  std::span<const ChunkLocation> locations() const {
    return view_.locations();
  }

  /// All chunk centroids as one contiguous row-major num_chunks() x dim()
  /// matrix (row i == centroid(i)), 64-byte-aligned (superset of the
  /// kKernelAlignment contract) so the batched distance kernels can rank
  /// every chunk in one call (Searcher::RankChunks).
  std::span<const float> centroid_matrix() const {
    return view_.centroids();
  }

  /// Parsed on-disk header of the opened index file (format version,
  /// section offsets) — surfaced for `qvt_tool info` and fsck.
  const IndexFileHeader& file_header() const { return view_.header(); }

  /// Total descriptors stored across all chunks.
  uint64_t total_descriptors() const;

  /// Population of the largest chunk.
  uint32_t max_chunk_descriptors() const;

  /// Full population distribution over the chunks — min/max/mean/p99 and
  /// the imbalance factor (max/mean) that predicts tail latency: a query
  /// probing the max-population chunk pays its scan and transfer alone.
  PopulationStats populations() const;

  /// One-line summary: chunk count, dimension, total descriptors, and the
  /// population distribution with its imbalance factor.
  std::string Describe() const;

  /// Reads chunk `i` into `*out`.
  Status ReadChunk(size_t i, ChunkData* out) const;

  /// Verifies the index file's CRC (Open already checked every entry),
  /// then that every chunk's contents lie within its index entry's sphere,
  /// that locations are consistent, and that no chunk is empty (an empty
  /// chunk silently inflates probe counts with zero-row scans).
  /// `max_population` > 0 additionally rejects any chunk more populous than
  /// the declared bound — the check a balance-constrained index is held
  /// to. Expensive; for tests and fsck.
  Status Validate(uint32_t max_population = 0) const;

 private:
  ChunkIndex(IndexFileView view, std::unique_ptr<ChunkFileReader> reader)
      : view_(std::move(view)), reader_(std::move(reader)) {}

  IndexFileView view_;
  std::unique_ptr<ChunkFileReader> reader_;
};

}  // namespace qvt

#endif  // QVT_CORE_CHUNK_INDEX_H_

#ifndef QVT_CLUSTER_SRTREE_CHUNKER_H_
#define QVT_CLUSTER_SRTREE_CHUNKER_H_

#include "cluster/chunker.h"

namespace qvt {

/// Uniform-chunk-size strategy (§2): runs the SR-tree's static bulk-load
/// partition (recursive max-variance median splits) with the requested leaf
/// size and emits one chunk per leaf. The upper levels of the tree are never
/// built. Produces "roundish chunks of uniform physical size".
/// Has no outlier handling of its own (§2); combine with NormOutlierFilter
/// or with externally removed outliers as the paper does.
class SrTreeChunker final : public Chunker {
 public:
  /// `leaf_capacity` controls the chunk size, exactly as the paper's added
  /// SR-tree parameter.
  explicit SrTreeChunker(size_t leaf_capacity);

  StatusOr<ChunkingResult> FormChunks(const Collection& collection) override;
  std::string name() const override { return "SR"; }

 private:
  size_t leaf_capacity_;
};

}  // namespace qvt

#endif  // QVT_CLUSTER_SRTREE_CHUNKER_H_

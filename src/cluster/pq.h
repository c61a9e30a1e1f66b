#ifndef QVT_CLUSTER_PQ_H_
#define QVT_CLUSTER_PQ_H_

#include <cstdint>
#include <vector>

#include "descriptor/collection.h"
#include "util/statusor.h"

namespace qvt {

/// Product-quantization training and encoding: the compressed in-memory
/// first pass. The descriptor space is split into `m` contiguous subspaces
/// of dim/m dimensions; each subspace gets its own k-means codebook of
/// `ksub` entries, and a descriptor compresses to m uint8 codebook indices
/// (m bytes instead of dim * 4).
///
/// Determinism: training runs one independent k-means per subspace, seeded
/// from its own Rng stream (`Rng::Stream(seed, s)`), with the same
/// shard-order parallel discipline as KMeansChunker — codebooks and codes
/// are byte-identical at any build thread count and across SIMD backends
/// (the kernels are bit-identical by contract).
struct PqConfig {
  /// Subspace count; must divide the collection dimensionality.
  size_t m = 8;
  /// Codebook entries per subspace; codes are uint8, so at most 256.
  size_t ksub = 256;
  size_t max_iterations = 25;
  /// Convergence threshold on total centroid movement (per subspace).
  double tolerance = 1e-4;
  uint64_t seed = 7;
};

/// Trained codebooks in the exact layout kernels::BuildAdcTable consumes:
/// `centroids` is m * ksub * sub_dim floats, row-major, subspace s's entry
/// c at row s * ksub + c. When the collection has fewer than ksub distinct
/// rows a subspace's tail entries duplicate entry 0; encoding keeps the
/// lowest index on ties, so duplicates are never selected and the fixed
/// ksub keeps the file layout and ADC table shape uniform.
struct PqCodebook {
  size_t dim = 0;
  size_t m = 0;
  size_t ksub = 0;
  size_t sub_dim() const { return dim / m; }
  std::vector<float> centroids;
};

/// Trains per-subspace codebooks over `collection`. InvalidArgument when
/// the collection is empty, dim is not divisible by config.m, or
/// config.ksub is outside [1, 256].
StatusOr<PqCodebook> TrainPq(const Collection& collection,
                             const PqConfig& config);

/// Encodes every descriptor of `collection` against `codebook` (which must
/// match the collection's dim): returns size() * m uint8 codes, row-major.
/// Each subvector maps to the nearest codebook entry in float space —
/// strict <, lowest index on ties — exactly the metric the ADC search pass
/// uses, so encoding is deterministic and consistent with search.
StatusOr<std::vector<uint8_t>> PqEncode(const Collection& collection,
                                        const PqCodebook& codebook);

}  // namespace qvt

#endif  // QVT_CLUSTER_PQ_H_

#ifndef QVT_CLUSTER_REBALANCE_H_
#define QVT_CLUSTER_REBALANCE_H_

#include "cluster/chunker.h"

namespace qvt {

/// Post-hoc population rebalancing for the output of ANY chunker — k-means,
/// BAG, SR-tree, round-robin. The chunkers optimize different
/// objectives (uniform size, intra-chunk dissimilarity); these passes bolt a
/// population bound on afterwards, trading a little of the original
/// objective for a bounded worst-case probe cost. Outliers pass through
/// untouched, and every output still satisfies ValidateChunking.
struct RebalanceOptions {
  /// Chunks more populous than this are split until they comply. Must be
  /// >= 1 for SplitOversized / RebalanceChunking.
  size_t max_population = 0;
  /// Chunks less populous than this are merged into their nearest
  /// neighboring chunk with room. 0 disables packing.
  size_t min_population = 0;
};

/// Splits every chunk with more than `max_population` members in two along
/// the chunk's widest axis: the two mutually far members a (farthest from
/// the chunk centroid) and b (farthest from a) act as poles, members are
/// ordered by d(x, a) - d(x, b) with position tie-breaks, and the order is
/// cut at the midpoint. Halves are re-examined until every chunk complies,
/// which always terminates: each split yields two nonempty chunks of at
/// most ceil(size / 2) members. Deterministic — no RNG, no thread
/// dependence. Chunk order: compliant chunks stay in place, the second
/// half of each split is appended.
StatusOr<ChunkingResult> SplitOversized(ChunkingResult chunking,
                                        const Collection& collection,
                                        size_t max_population);

/// Merges chunks with fewer than `min_population` members into the chunk
/// whose centroid is nearest among those with room (merged population <=
/// `max_population`; 0 = unbounded). Smallest chunk first, ties by lower
/// chunk index; a chunk with no viable target is left as is. Undersized
/// chunks cost a probe and a page per query that ranks them while
/// contributing few candidates — packing trims that fixed overhead.
StatusOr<ChunkingResult> PackUndersized(ChunkingResult chunking,
                                        const Collection& collection,
                                        size_t min_population,
                                        size_t max_population);

/// SplitOversized then PackUndersized (splitting can create undersized
/// halves; packing respects the population cap, so the order is safe).
StatusOr<ChunkingResult> RebalanceChunking(ChunkingResult chunking,
                                           const Collection& collection,
                                           const RebalanceOptions& options);

}  // namespace qvt

#endif  // QVT_CLUSTER_REBALANCE_H_

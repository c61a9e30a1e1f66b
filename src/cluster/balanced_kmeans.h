#ifndef QVT_CLUSTER_BALANCED_KMEANS_H_
#define QVT_CLUSTER_BALANCED_KMEANS_H_

#include "cluster/kmeans.h"

namespace qvt {

/// Balance-constrained k-means (the fix for KM's giant-chunk problem, after
/// Tavenard et al.'s observation that per-query latency variance tracks the
/// population of the largest cluster a query probes): Lloyd's iterations
/// where the assignment step enforces a hard per-cluster population bound.
struct BalancedKMeansConfig {
  /// Seeding, iteration, and convergence parameters — interpreted exactly
  /// as KMeansChunker interprets them, and seeded identically.
  KMeansConfig base;
  /// Hard cap on any cluster's population. 0 derives the cap from
  /// `balance_slack` instead.
  size_t max_population = 0;
  /// When max_population == 0, the cap is ceil(balance_slack * n / k):
  /// each cluster may exceed its fair share by this factor. Must be >= 1.
  double balance_slack = 1.05;
};

/// Capacity-constrained Lloyd's. Each assignment pass finds every point's
/// nearest centroid in parallel (AssignNearestCentroids, a pure per-row
/// function, so sharding cannot change it), then places points serially in
/// position order: a point keeps its nearest centroid while that has room,
/// and otherwise spills to the nearest centroid with room by (distance,
/// index), recomputing only that point's distances. Memory is O(n), not
/// O(n * k). The update step is KMeansChunker's fixed-shard
/// UpdateKMeansCentroids, so the whole build is bit-identical at any
/// thread count.
class BalancedKMeansChunker final : public Chunker {
 public:
  explicit BalancedKMeansChunker(const BalancedKMeansConfig& config);

  /// Fails with InvalidArgument when the effective bound cannot hold the
  /// collection (bound * k < n).
  StatusOr<ChunkingResult> FormChunks(const Collection& collection) override;
  std::string name() const override { return "BKM"; }

  /// Iterations actually executed by the last FormChunks call.
  size_t last_iterations() const { return last_iterations_; }

  /// The per-cluster population cap the last FormChunks call enforced
  /// (max_population, or the slack-derived cap when max_population == 0).
  size_t last_bound() const { return last_bound_; }

 private:
  BalancedKMeansConfig config_;
  size_t last_iterations_ = 0;
  size_t last_bound_ = 0;
};

}  // namespace qvt

#endif  // QVT_CLUSTER_BALANCED_KMEANS_H_

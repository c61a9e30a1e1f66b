#ifndef QVT_CLUSTER_KMEANS_H_
#define QVT_CLUSTER_KMEANS_H_

#include <span>

#include "cluster/chunker.h"
#include "util/random.h"

namespace qvt {

/// Lloyd's k-means chunker: an extension baseline sitting between the
/// paper's two extremes — it optimizes intra-chunk dissimilarity like BAG
/// (minimizing within-cluster variance) but with no size control at all, so
/// it inherits BAG's giant-chunk problem without its outlier handling.
struct KMeansConfig {
  size_t num_clusters = 64;
  size_t max_iterations = 25;
  /// Convergence threshold on total centroid movement.
  double tolerance = 1e-4;
  uint64_t seed = 7;
  /// Use k-means++ seeding (otherwise uniform random points).
  bool plus_plus_init = true;
};

/// Seeds `k` centroids over `collection`, consuming `rng` exactly as
/// KMeansChunker always has: k-means++ when `config.plus_plus_init` and
/// k > 1, else a uniform sample without replacement. Shared with
/// BalancedKMeansChunker so both variants start Lloyd's iterations from
/// bit-identical seeds. Deterministic at any build thread count (the
/// kernel sweeps are sharded per row; the weighted pick is serial).
std::vector<std::vector<double>> SeedKMeansCentroids(
    const Collection& collection, size_t k, const KMeansConfig& config,
    Rng& rng);

/// Lloyd's assign step: sets `nearest[i]` to the centroid closest to row i
/// by squared distance, one BatchSquaredDistance sweep per centroid with a
/// running strict-< argmin (ties keep the lowest index). Each row's answer
/// is a pure function of that row, so the fixed row sharding cannot change
/// it at any build thread count.
void AssignNearestCentroids(const Collection& collection,
                            const std::vector<std::vector<double>>& centroids,
                            std::span<uint32_t> nearest);

/// Lloyd's update step: moves every centroid to the mean of the rows that
/// `assignment` gives it, re-seeding an empty cluster on a row drawn from
/// `rng` (in centroid order). Per-shard partial sums merge in shard-index
/// order, so the accumulation order is fixed at any build thread count.
/// Returns the total centroid movement.
double UpdateKMeansCentroids(const Collection& collection,
                             std::span<const uint32_t> assignment, Rng& rng,
                             std::vector<std::vector<double>>& centroids);

class KMeansChunker final : public Chunker {
 public:
  explicit KMeansChunker(const KMeansConfig& config);

  StatusOr<ChunkingResult> FormChunks(const Collection& collection) override;
  std::string name() const override { return "KM"; }

  /// Iterations actually executed by the last FormChunks call.
  size_t last_iterations() const { return last_iterations_; }

 private:
  KMeansConfig config_;
  size_t last_iterations_ = 0;
};

}  // namespace qvt

#endif  // QVT_CLUSTER_KMEANS_H_

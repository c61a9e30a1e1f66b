#include "cluster/balanced_kmeans.h"

#include <algorithm>
#include <cmath>

#include "geometry/kernels.h"
#include "util/build_stats.h"
#include "util/logging.h"

namespace qvt {

BalancedKMeansChunker::BalancedKMeansChunker(const BalancedKMeansConfig& config)
    : config_(config) {
  QVT_CHECK(config.base.num_clusters >= 1);
  QVT_CHECK(config.base.max_iterations >= 1);
  QVT_CHECK(config.balance_slack >= 1.0);
}

StatusOr<ChunkingResult> BalancedKMeansChunker::FormChunks(
    const Collection& collection) {
  if (collection.empty()) {
    return Status::InvalidArgument("cannot cluster an empty collection");
  }
  const size_t n = collection.size();
  const size_t dim = collection.dim();
  const size_t k = std::min(config_.base.num_clusters, n);

  const size_t bound =
      config_.max_population > 0
          ? config_.max_population
          : static_cast<size_t>(std::ceil(
                config_.balance_slack * static_cast<double>(n) /
                static_cast<double>(k)));
  if (bound * k < n) {
    return Status::InvalidArgument(
        "population bound " + std::to_string(bound) + " x " +
        std::to_string(k) + " clusters cannot hold " + std::to_string(n) +
        " descriptors");
  }
  last_bound_ = bound;

  Rng rng(config_.base.seed);
  std::vector<std::vector<double>> centroids =
      SeedKMeansCentroids(collection, k, config_.base, rng);

  const float* raw = collection.RawData().data();
  std::vector<uint32_t> assignment(n, 0);
  std::vector<size_t> loads(k);

  last_iterations_ = 0;
  for (size_t iter = 0; iter < config_.base.max_iterations; ++iter) {
    ++last_iterations_;
    // Assign, phase 1 (parallel): every point's nearest centroid, exactly
    // as KMeansChunker assigns it.
    {
      BuildPhaseTimer assign_timer("balanced_kmeans.assign");
      AssignNearestCentroids(collection, centroids, assignment);
    }
    // Assign, phase 2 (serial, position order): greedy capacity-constrained
    // placement. A point keeps its nearest centroid while that has room;
    // otherwise it spills to the nearest centroid with room, by (squared
    // distance, index), recomputed with the same kernel (per-row values do
    // not depend on the batch). That is the first centroid with room in
    // the point's ascending (distance, index) order. Serial consumption in
    // point order is what makes the spill cascade deterministic; a slot
    // always exists because bound * k >= n.
    {
      BuildPhaseTimer place_timer("balanced_kmeans.place");
      std::fill(loads.begin(), loads.end(), 0);
      for (size_t i = 0; i < n; ++i) {
        if (loads[assignment[i]] >= bound) {
          uint32_t best = static_cast<uint32_t>(k);
          double best_sq = 0.0;
          for (uint32_t c = 0; c < k; ++c) {
            if (loads[c] >= bound) continue;
            double sq;
            kernels::BatchSquaredDistance(raw + i * dim, 1, dim,
                                          std::span<const double>(centroids[c]),
                                          &sq);
            if (best == k || sq < best_sq) {
              best = c;
              best_sq = sq;
            }
          }
          assignment[i] = best;
        }
        ++loads[assignment[i]];
      }
    }
    BuildPhaseTimer update_timer("balanced_kmeans.update");
    if (UpdateKMeansCentroids(collection, assignment, rng, centroids) <
        config_.base.tolerance) {
      break;
    }
  }

  ChunkingResult result;
  result.chunks.resize(k);
  for (size_t i = 0; i < n; ++i) result.chunks[assignment[i]].push_back(i);
  std::erase_if(result.chunks,
                [](const std::vector<size_t>& c) { return c.empty(); });
  return result;
}

}  // namespace qvt

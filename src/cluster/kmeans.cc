#include "cluster/kmeans.h"

#include <cmath>
#include <limits>

#include "geometry/kernels.h"
#include "util/build_stats.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace qvt {

namespace {
/// Fixed shard width of the descriptor-parallel passes. Part of the
/// algorithm definition: shard boundaries (and therefore the order in which
/// per-shard partial sums merge) must never depend on the thread count.
constexpr size_t kRowGrain = 4096;
}  // namespace

std::vector<std::vector<double>> SeedKMeansCentroids(
    const Collection& collection, size_t k, const KMeansConfig& config,
    Rng& rng) {
  const size_t n = collection.size();
  const size_t dim = collection.dim();
  std::vector<std::vector<double>> centroids(k,
                                             std::vector<double>(dim, 0.0));
  auto set_centroid = [&](size_t c, size_t pos) {
    const auto v = collection.Vector(pos);
    for (size_t d = 0; d < dim; ++d) centroids[c][d] = v[d];
  };

  const float* raw = collection.RawData().data();
  std::vector<double> centroid_sq(n);  // batched kernel output

  if (config.plus_plus_init && k > 1) {
    // k-means++: first center uniform, subsequent centers proportional to
    // squared distance from the nearest chosen center.
    BuildPhaseTimer seed_timer("kmeans.seed");
    set_centroid(0, rng.Uniform(n));
    std::vector<double> dist_sq(n, std::numeric_limits<double>::infinity());
    for (size_t c = 1; c < k; ++c) {
      // The kernel sweep and the elementwise min are sharded over rows
      // (each row's value is independent of the sharding); the weighted
      // pick below stays serial so it consumes dist_sq in index order.
      ParallelFor(n, kRowGrain, [&](size_t begin, size_t end) {
        kernels::BatchSquaredDistance(
            raw + begin * dim, end - begin, dim,
            std::span<const double>(centroids[c - 1]),
            centroid_sq.data() + begin);
        for (size_t i = begin; i < end; ++i) {
          dist_sq[i] = std::min(dist_sq[i], centroid_sq[i]);
        }
      });
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) total += dist_sq[i];
      double target = rng.NextDouble() * total;
      size_t pick = n - 1;
      for (size_t i = 0; i < n; ++i) {
        target -= dist_sq[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
      set_centroid(c, pick);
    }
  } else {
    const auto picks = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(n), static_cast<uint32_t>(k));
    for (size_t c = 0; c < k; ++c) set_centroid(c, picks[c]);
  }
  return centroids;
}

void AssignNearestCentroids(const Collection& collection,
                            const std::vector<std::vector<double>>& centroids,
                            std::span<uint32_t> nearest) {
  const size_t dim = collection.dim();
  const float* raw = collection.RawData().data();
  ParallelFor(collection.size(), kRowGrain, [&](size_t begin, size_t end) {
    const size_t rows = end - begin;
    std::vector<double> centroid_sq(rows);
    std::vector<double> best_sq(rows);
    for (size_t c = 0; c < centroids.size(); ++c) {
      kernels::BatchSquaredDistance(raw + begin * dim, rows, dim,
                                    std::span<const double>(centroids[c]),
                                    centroid_sq.data());
      for (size_t r = 0; r < rows; ++r) {
        if (c == 0 || centroid_sq[r] < best_sq[r]) {
          best_sq[r] = centroid_sq[r];
          nearest[begin + r] = static_cast<uint32_t>(c);
        }
      }
    }
  });
}

double UpdateKMeansCentroids(const Collection& collection,
                             std::span<const uint32_t> assignment, Rng& rng,
                             std::vector<std::vector<double>>& centroids) {
  const size_t n = collection.size();
  const size_t dim = collection.dim();
  const size_t k = centroids.size();
  struct Partial {
    std::vector<double> sums;  // k * dim, flat
    std::vector<size_t> counts;
  };
  const Partial total = ParallelReduce(
      n, kRowGrain,
      Partial{std::vector<double>(k * dim, 0.0), std::vector<size_t>(k, 0)},
      [&](size_t begin, size_t end) {
        Partial p{std::vector<double>(k * dim, 0.0),
                  std::vector<size_t>(k, 0)};
        for (size_t i = begin; i < end; ++i) {
          const auto v = collection.Vector(i);
          double* sum = p.sums.data() + assignment[i] * dim;
          for (size_t d = 0; d < dim; ++d) sum[d] += v[d];
          ++p.counts[assignment[i]];
        }
        return p;
      },
      [](Partial acc, const Partial& p) {
        for (size_t j = 0; j < acc.sums.size(); ++j) acc.sums[j] += p.sums[j];
        for (size_t c = 0; c < acc.counts.size(); ++c) {
          acc.counts[c] += p.counts[c];
        }
        return acc;
      });

  double movement = 0.0;
  for (size_t c = 0; c < k; ++c) {
    if (total.counts[c] == 0) {
      // Re-seed empty clusters on a random point.
      const auto v = collection.Vector(rng.Uniform(n));
      for (size_t d = 0; d < dim; ++d) centroids[c][d] = v[d];
      continue;
    }
    double delta_sq = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double next =
          total.sums[c * dim + d] / static_cast<double>(total.counts[c]);
      const double x = next - centroids[c][d];
      delta_sq += x * x;
      centroids[c][d] = next;
    }
    movement += std::sqrt(delta_sq);
  }
  return movement;
}

KMeansChunker::KMeansChunker(const KMeansConfig& config) : config_(config) {
  QVT_CHECK(config.num_clusters >= 1);
  QVT_CHECK(config.max_iterations >= 1);
}

StatusOr<ChunkingResult> KMeansChunker::FormChunks(
    const Collection& collection) {
  if (collection.empty()) {
    return Status::InvalidArgument("cannot cluster an empty collection");
  }
  const size_t n = collection.size();
  const size_t k = std::min(config_.num_clusters, n);
  Rng rng(config_.seed);

  std::vector<std::vector<double>> centroids =
      SeedKMeansCentroids(collection, k, config_, rng);
  std::vector<uint32_t> assignment(n, 0);

  last_iterations_ = 0;
  for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
    ++last_iterations_;
    {
      BuildPhaseTimer assign_timer("kmeans.assign");
      AssignNearestCentroids(collection, centroids, assignment);
    }
    BuildPhaseTimer update_timer("kmeans.update");
    if (UpdateKMeansCentroids(collection, assignment, rng, centroids) <
        config_.tolerance) {
      break;
    }
  }

  ChunkingResult result;
  result.chunks.resize(k);
  for (size_t i = 0; i < n; ++i) result.chunks[assignment[i]].push_back(i);
  // Empty clusters can remain if points collapse; drop them.
  std::erase_if(result.chunks,
                [](const std::vector<size_t>& c) { return c.empty(); });
  return result;
}

}  // namespace qvt

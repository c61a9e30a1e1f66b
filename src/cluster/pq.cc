#include "cluster/pq.h"

#include <algorithm>

#include "cluster/kmeans.h"
#include "geometry/kernels.h"
#include "util/build_stats.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace qvt {

namespace {

/// Row shard width of the encode sweep. Each row's code is a pure function
/// of that row, so the sharding cannot change it.
constexpr size_t kRowGrain = 4096;

Status CheckShape(size_t dim, size_t m, size_t ksub) {
  if (m == 0 || m > dim || dim % m != 0) {
    return Status::InvalidArgument(
        "pq: m must divide the descriptor dimension (dim " +
        std::to_string(dim) + ", m " + std::to_string(m) + ")");
  }
  if (ksub == 0 || ksub > 256) {
    return Status::InvalidArgument("pq: ksub must be in [1, 256], got " +
                                   std::to_string(ksub));
  }
  return Status::OK();
}

/// Extracts subspace `s` of every descriptor into a contiguous collection
/// so the batched kernels can sweep it. Positions are preserved.
Collection SubspaceCollection(const Collection& collection, size_t s,
                              size_t sub_dim) {
  Collection sub(sub_dim);
  sub.Reserve(collection.size());
  for (size_t i = 0; i < collection.size(); ++i) {
    sub.Append(collection.Id(i), collection.Vector(i).subspan(s * sub_dim,
                                                              sub_dim));
  }
  return sub;
}

/// Lloyd's iterations over one subspace, KMeansChunker's assign and update
/// steps kept in double precision so the final centroids (not chunk
/// assignments) come out. Deterministic at any thread count.
std::vector<std::vector<double>> LloydCentroids(
    const Collection& sub, std::vector<std::vector<double>> centroids,
    const PqConfig& config, Rng& rng) {
  std::vector<uint32_t> assignment(sub.size(), 0);
  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    AssignNearestCentroids(sub, centroids, assignment);
    if (UpdateKMeansCentroids(sub, assignment, rng, centroids) <
        config.tolerance) {
      break;
    }
  }
  return centroids;
}

}  // namespace

StatusOr<PqCodebook> TrainPq(const Collection& collection,
                             const PqConfig& config) {
  if (collection.empty()) {
    return Status::InvalidArgument("pq: cannot train on an empty collection");
  }
  QVT_RETURN_IF_ERROR(CheckShape(collection.dim(), config.m, config.ksub));
  if (config.max_iterations == 0) {
    return Status::InvalidArgument("pq: max_iterations must be >= 1");
  }
  BuildPhaseTimer train_timer("pq.train");

  PqCodebook codebook;
  codebook.dim = collection.dim();
  codebook.m = config.m;
  codebook.ksub = config.ksub;
  const size_t sub_dim = codebook.sub_dim();
  codebook.centroids.assign(config.m * config.ksub * sub_dim, 0.0f);

  const size_t k_eff = std::min(config.ksub, collection.size());
  KMeansConfig seed_config;
  seed_config.num_clusters = k_eff;
  seed_config.max_iterations = config.max_iterations;
  seed_config.tolerance = config.tolerance;
  seed_config.seed = config.seed;

  for (size_t s = 0; s < config.m; ++s) {
    const Collection sub = SubspaceCollection(collection, s, sub_dim);
    // Each subspace draws from its own stream of the master seed, so its
    // randomness is independent of every other subspace's.
    Rng rng = Rng::Stream(config.seed, s);
    std::vector<std::vector<double>> centroids =
        LloydCentroids(sub, SeedKMeansCentroids(sub, k_eff, seed_config, rng),
                       config, rng);
    float* rows = codebook.centroids.data() + s * config.ksub * sub_dim;
    for (size_t c = 0; c < config.ksub; ++c) {
      // Tail entries past k_eff duplicate entry 0; the strict-< lowest-index
      // assignment below never selects a duplicate.
      const std::vector<double>& src = centroids[c < k_eff ? c : 0];
      for (size_t d = 0; d < sub_dim; ++d) {
        rows[c * sub_dim + d] = static_cast<float>(src[d]);
      }
    }
  }
  return codebook;
}

StatusOr<std::vector<uint8_t>> PqEncode(const Collection& collection,
                                        const PqCodebook& codebook) {
  if (codebook.dim != collection.dim()) {
    return Status::InvalidArgument(
        "pq: codebook dim " + std::to_string(codebook.dim) +
        " does not match collection dim " +
        std::to_string(collection.dim()));
  }
  QVT_RETURN_IF_ERROR(CheckShape(codebook.dim, codebook.m, codebook.ksub));
  const size_t sub_dim = codebook.sub_dim();
  if (codebook.centroids.size() != codebook.m * codebook.ksub * sub_dim) {
    return Status::InvalidArgument("pq: codebook centroid array has wrong "
                                   "size");
  }
  BuildPhaseTimer encode_timer("pq.encode");

  const size_t n = collection.size();
  std::vector<uint8_t> codes(n * codebook.m, 0);
  std::vector<double> entry_sq(n);
  std::vector<double> best_sq(n);
  for (size_t s = 0; s < codebook.m; ++s) {
    const Collection sub = SubspaceCollection(collection, s, sub_dim);
    const float* raw = sub.RawData().data();
    const float* entries =
        codebook.centroids.data() + s * codebook.ksub * sub_dim;
    ParallelFor(n, kRowGrain, [&](size_t begin, size_t end) {
      const size_t rows = end - begin;
      for (size_t c = 0; c < codebook.ksub; ++c) {
        // The float-query overload widens the f32 entry to double exactly —
        // the same distances the ADC table build computes at query time.
        kernels::BatchSquaredDistance(
            raw + begin * sub_dim, rows, sub_dim,
            std::span<const float>(entries + c * sub_dim, sub_dim),
            entry_sq.data() + begin);
        if (c == 0) {
          std::copy(entry_sq.begin() + begin, entry_sq.begin() + end,
                    best_sq.begin() + begin);
          for (size_t i = begin; i < end; ++i) codes[i * codebook.m + s] = 0;
        } else {
          for (size_t i = begin; i < end; ++i) {
            if (entry_sq[i] < best_sq[i]) {
              best_sq[i] = entry_sq[i];
              codes[i * codebook.m + s] = static_cast<uint8_t>(c);
            }
          }
        }
      }
    });
  }
  return codes;
}

}  // namespace qvt

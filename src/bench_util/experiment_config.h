#ifndef QVT_BENCH_UTIL_EXPERIMENT_CONFIG_H_
#define QVT_BENCH_UTIL_EXPERIMENT_CONFIG_H_

#include <cstdint>
#include <string>

#include "cluster/bag.h"
#include "descriptor/generator.h"
#include "storage/disk_cost_model.h"

namespace qvt {

/// Scaled-down stand-in for the paper's experimental setup (§5.1-5.3).
///
/// The paper uses 5,017,298 descriptors over 52,273 images; we default to
/// ~200k descriptors over 2,000 synthetic images so the full experiment
/// suite runs in minutes on one core, while keeping per-chunk populations at
/// the paper's values (SMALL ~947, MEDIUM ~1,711, LARGE ~2,486 descriptors
/// per chunk). Chunk *counts* shrink proportionally; see DESIGN.md
/// substitution 1.
struct ExperimentConfig {
  GeneratorConfig generator;

  /// Paper's average BAG chunk populations (Table 1), kept verbatim.
  size_t small_chunk_size = 947;
  size_t medium_chunk_size = 1711;
  size_t large_chunk_size = 2486;

  BagConfig bag;

  /// Estimated population of a terminal below-threshold (outlier) cluster.
  /// BAG's termination threshold counts *all* clusters including the small
  /// ones later discarded as outliers, so the RunUntil targets add
  /// outlier_fraction * N / this estimate on top of the retained chunk
  /// count.
  size_t outlier_cluster_size_estimate = 150;

  /// Succession ratios for MEDIUM and LARGE relative to the cluster count
  /// at the SMALL stop — the paper's own proportions (Table 1:
  /// 2,685/4,720 and 1,871/4,720). Using ratios of the *observed* SMALL
  /// count self-calibrates against the outlier-cluster tail.
  double medium_target_ratio = 2685.0 / 4720.0;
  double large_target_ratio = 1871.0 / 4720.0;

  /// BAG cluster-count target for a desired average retained chunk size.
  size_t BagTargetForChunkSize(size_t collection_size,
                               size_t chunk_size) const {
    const double of = generator.outlier_fraction;
    const double retained = (1.0 - of) * static_cast<double>(collection_size);
    const double outlier_clusters =
        of * static_cast<double>(collection_size) /
        static_cast<double>(outlier_cluster_size_estimate);
    const double target =
        retained / static_cast<double>(chunk_size) + outlier_clusters;
    return target < 1.0 ? 1 : static_cast<size_t>(target);
  }

  /// Queries per workload (paper: 1,000; scaled with the collection).
  size_t queries_per_workload = 200;
  /// Neighbors searched and scored (paper: top 30).
  size_t k = 30;
  uint64_t workload_seed = 1234;

  /// Cost model with descriptor_scale set so the synthetic collection's
  /// charges match the paper's 5M-descriptor testbed (~25 real descriptors
  /// per synthetic one at the default scale).
  DiskCostModelConfig cost_model = [] {
    DiskCostModelConfig model;
    model.descriptor_scale = 25.0;
    return model;
  }();

  /// Directory for cached collections/indexes/ground truth. The BAG runs
  /// are the expensive part (12 days at paper scale, minutes here); caching
  /// lets every bench binary share one build.
  std::string cache_dir = "/tmp/qvt_cache";

  static ExperimentConfig Default() { return ExperimentConfig{}; }

  /// A tiny configuration for smoke tests (a few thousand descriptors).
  static ExperimentConfig Tiny() {
    ExperimentConfig config;
    config.generator.num_images = 60;
    config.generator.descriptors_per_image = 50;
    config.generator.num_modes = 45;
    config.small_chunk_size = 60;
    config.medium_chunk_size = 110;
    config.large_chunk_size = 160;
    config.queries_per_workload = 20;
    config.cache_dir = "/tmp/qvt_cache_tiny";
    return config;
  }

  /// Stable fingerprint of everything that affects generated artifacts;
  /// part of cache file names so config changes invalidate the cache.
  uint64_t Fingerprint() const;
};

}  // namespace qvt

#endif  // QVT_BENCH_UTIL_EXPERIMENT_CONFIG_H_

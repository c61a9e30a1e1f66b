#include "bench_util/experiment_config.h"

#include <cmath>

namespace qvt {

namespace {
uint64_t MixU64(uint64_t h, uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
uint64_t MixDouble(uint64_t h, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return MixU64(h, bits);
}
}  // namespace

uint64_t ExperimentConfig::Fingerprint() const {
  // Cache-format version. Bump whenever search/ground-truth semantics
  // change so stale on-disk suite caches are rebuilt rather than trusted
  // (v2: k-NN distance ties are broken by descriptor id; v3: generator
  // draws each image from its own RNG stream and build-path reductions use
  // fixed shard order, both of which re-baseline the cached artifacts;
  // v4: index files moved to the versioned "QVTIDX01" column format —
  // headerless v0 caches are unreadable and must be rebuilt; v5: index
  // files are "QVTIDX02", with a bounding-rectangle section, and v1 files
  // are no longer read).
  uint64_t h = 0x5eed0005ULL;
  h = MixU64(h, generator.dim);
  h = MixU64(h, generator.seed);
  h = MixU64(h, generator.num_images);
  h = MixU64(h, generator.descriptors_per_image);
  h = MixU64(h, generator.num_modes);
  h = MixDouble(h, generator.mode_zipf_exponent);
  h = MixDouble(h, generator.value_range);
  h = MixDouble(h, generator.mode_spread);
  h = MixDouble(h, generator.mode_stddev);
  h = MixDouble(h, generator.image_offset_stddev);
  h = MixDouble(h, generator.descriptor_stddev);
  h = MixU64(h, generator.modes_per_image);
  h = MixDouble(h, generator.outlier_fraction);
  h = MixDouble(h, generator.outlier_scale);
  h = MixU64(h, small_chunk_size);
  h = MixU64(h, medium_chunk_size);
  h = MixU64(h, large_chunk_size);
  h = MixDouble(h, bag.mpi);
  h = MixDouble(h, bag.destroy_fraction);
  h = MixU64(h, queries_per_workload);
  h = MixU64(h, k);
  h = MixU64(h, workload_seed);
  return h;
}

}  // namespace qvt

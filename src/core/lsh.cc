#include "core/lsh.h"

#include <algorithm>
#include <cmath>

#include "core/search_method.h"
#include "geometry/vec.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {

namespace {

double DataDrivenBucketWidth(const Collection& collection, Rng* rng) {
  const size_t n = collection.size();
  if (n < 2) return 1.0;
  double sum = 0.0;
  const int samples = 64;
  for (int s = 0; s < samples; ++s) {
    const size_t a = rng->Uniform(n);
    const size_t b = rng->Uniform(n);
    sum += vec::Distance(collection.Vector(a), collection.Vector(b));
  }
  // A fraction of the typical pairwise distance keeps buckets selective.
  return std::max(1e-6, sum / samples / 4.0);
}

}  // namespace

uint64_t LshIndex::HashOf(std::span<const float> vector, size_t table) const {
  const size_t dim = collection_->dim();
  uint64_t key = 0xcbf29ce484222325ULL;  // FNV-1a over the quantized values
  for (size_t h = 0; h < config_.hashes_per_table; ++h) {
    const size_t base = (table * config_.hashes_per_table + h) * dim;
    double dot = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      dot += static_cast<double>(vector[d]) * directions_[base + d];
    }
    const int64_t cell = static_cast<int64_t>(std::floor(
        (dot + offsets_[table * config_.hashes_per_table + h]) /
        config_.bucket_width));
    key ^= static_cast<uint64_t>(cell) + 0x9e3779b97f4a7c15ULL + (key << 6) +
           (key >> 2);
    key *= 0x100000001b3ULL;
  }
  return key;
}

LshIndex LshIndex::Build(const Collection* collection,
                         const LshConfig& config) {
  QVT_CHECK(collection != nullptr);
  QVT_CHECK(config.num_tables >= 1);
  QVT_CHECK(config.hashes_per_table >= 1);

  LshIndex index(collection, config);
  const size_t dim = collection->dim();
  Rng rng(config.seed);

  if (index.config_.bucket_width <= 0.0) {
    index.config_.bucket_width = DataDrivenBucketWidth(*collection, &rng);
  }

  const size_t total_hashes = config.num_tables * config.hashes_per_table;
  index.directions_.resize(total_hashes * dim);
  index.offsets_.resize(total_hashes);
  for (size_t h = 0; h < total_hashes; ++h) {
    for (size_t d = 0; d < dim; ++d) {
      // p-stable (Gaussian) projections; no normalization needed.
      index.directions_[h * dim + d] = static_cast<float>(rng.NextGaussian());
    }
    index.offsets_[h] = static_cast<float>(
        rng.UniformDouble(0.0, index.config_.bucket_width));
  }

  index.tables_.resize(config.num_tables);
  for (size_t t = 0; t < config.num_tables; ++t) {
    auto& entries = index.tables_[t].sorted_entries;
    entries.resize(collection->size());
    for (size_t i = 0; i < collection->size(); ++i) {
      entries[i] = {index.HashOf(collection->Vector(i), t),
                    static_cast<uint32_t>(i)};
    }
    std::sort(entries.begin(), entries.end());
  }
  return index;
}

StatusOr<std::vector<Neighbor>> LshIndex::Search(
    std::span<const float> query, size_t k, QueryTelemetry* telemetry,
    std::span<const DescriptorId> excluded) const {
  QVT_RETURN_IF_ERROR(ValidateQuery(query, collection_->dim()));
  if (k == 0) return Status::InvalidArgument("k must be positive");

  WallClock wall;
  Stopwatch stopwatch(&wall);
  QueryTelemetry telem;
  KnnResultSet result(k, excluded);
  std::vector<uint8_t> seen(collection_->size(), 0);

  // Plan stage: hash the query once per table (the bucket keys fully
  // determine the walk below).
  std::vector<uint64_t> keys(config_.num_tables);
  for (size_t t = 0; t < config_.num_tables; ++t) keys[t] = HashOf(query, t);
  telem.plan.wall_micros = stopwatch.ElapsedMicros();

  for (size_t t = 0; t < config_.num_tables; ++t) {
    ++telem.probes;
    const auto& entries = tables_[t].sorted_entries;
    auto it = std::lower_bound(entries.begin(), entries.end(),
                               std::make_pair(keys[t], uint32_t{0}));
    for (; it != entries.end() && it->first == keys[t]; ++it) {
      ++telem.candidates_examined;
      const uint32_t pos = it->second;
      if (seen[pos]) continue;
      seen[pos] = 1;
      ++telem.descriptors_scanned;
      result.Insert(collection_->Id(pos),
                    vec::Distance(collection_->Vector(pos), query));
    }
  }
  telem.wall_micros = stopwatch.ElapsedMicros();
  telem.scan.wall_micros = telem.wall_micros - telem.plan.wall_micros;
  telem.bytes_read = telem.descriptors_scanned *
                    DescriptorRecordBytes(collection_->dim());
  telem.tombstones_filtered = result.refused();
  if (telemetry != nullptr) *telemetry = telem;
  return result.Sorted();
}

}  // namespace qvt

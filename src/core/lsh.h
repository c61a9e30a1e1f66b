#ifndef QVT_CORE_LSH_H_
#define QVT_CORE_LSH_H_

#include <cstdint>
#include <vector>

#include "core/result_set.h"
#include "core/telemetry.h"
#include "descriptor/collection.h"
#include "util/statusor.h"

namespace qvt {

/// Configuration of the locality-sensitive-hashing index (Gionis, Indyk,
/// Motwani, VLDB'99 — the paper's related work [11]), in its p-stable
/// Euclidean form: each of `num_tables` hash functions concatenates
/// `hashes_per_table` quantized random projections
/// h(v) = floor((a.v + b) / bucket_width).
struct LshConfig {
  size_t num_tables = 8;
  size_t hashes_per_table = 8;
  /// Projection quantization width; should be on the order of interesting
  /// neighbor distances. Zero picks a data-driven value (the mean distance
  /// between a few sample pairs, scaled down).
  double bucket_width = 0.0;
  uint64_t seed = 777;
};

/// Classic multi-table LSH: a query probes one bucket per table and ranks
/// the union of their members by exact distance. Sub-linear candidate sets
/// at the cost of missing neighbors that collide in no table.
class LshIndex {
 public:
  /// Builds the tables over `collection` (borrowed; must outlive the index).
  static LshIndex Build(const Collection* collection, const LshConfig& config);

  /// Approximate k nearest neighbors (ascending distance, ties by id).
  /// Returns fewer than k when the probed buckets hold fewer distinct
  /// candidates. `telemetry`, when non-null, receives the unified query
  /// record (probes = buckets probed, candidates_examined = bucket members
  /// before dedup, descriptors_scanned = exact distance computations).
  /// Ids in `excluded` (sorted ascending) are refused by the result set.
  StatusOr<std::vector<Neighbor>> Search(
      std::span<const float> query, size_t k,
      QueryTelemetry* telemetry = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  double bucket_width() const { return config_.bucket_width; }

  /// Bytes of RAM the built tables hold resident (projection directions,
  /// offsets, and the sorted (key, position) bucket entries per table).
  size_t ResidentBytes() const {
    size_t bytes = (directions_.size() + offsets_.size()) * sizeof(float);
    for (const Table& table : tables_) {
      bytes +=
          table.sorted_entries.size() * sizeof(std::pair<uint64_t, uint32_t>);
    }
    return bytes;
  }

 private:
  LshIndex(const Collection* collection, const LshConfig& config)
      : collection_(collection), config_(config) {}

  /// Bucket key of `vector` in `table`.
  uint64_t HashOf(std::span<const float> vector, size_t table) const;

  const Collection* collection_;
  LshConfig config_;
  /// Projection directions: [table][hash][dim] flattened.
  std::vector<float> directions_;
  /// Offsets b per (table, hash).
  std::vector<float> offsets_;
  /// Per table: bucket key -> positions.
  struct Table {
    std::vector<std::pair<uint64_t, uint32_t>> sorted_entries;  // (key, pos)
  };
  std::vector<Table> tables_;
};

}  // namespace qvt

#endif  // QVT_CORE_LSH_H_

#ifndef QVT_CORE_MEDRANK_H_
#define QVT_CORE_MEDRANK_H_

#include <cstdint>
#include <vector>

#include "core/result_set.h"
#include "core/telemetry.h"
#include "descriptor/collection.h"
#include "util/statusor.h"

namespace qvt {

/// Configuration of the Medrank index (Fagin, Kumar, Sivakumar, SIGMOD'03 —
/// discussed in the paper's related work, §6).
struct MedrankConfig {
  /// Number of random projection lines.
  size_t num_lines = 16;
  /// A point is emitted once it has been seen on at least this fraction of
  /// the lines (0.5 = the median rank of the original algorithm).
  double min_frequency = 0.5;
  uint64_t seed = 4242;
};

/// Rank-aggregation approximate nearest-neighbor search: every descriptor
/// is projected onto `num_lines` random lines, each kept sorted; a query
/// walks all lists outward from its own projections in lock step and emits
/// the descriptor that first appears on more than half the lists as the
/// (probable) nearest neighbor, then the next, and so on. No distance
/// computations are needed during the walk — the property §6 highlights
/// ("I/O bound, and I/O optimal").
class MedrankIndex {
 public:
  /// Builds the index over `collection` (borrowed; must outlive the index).
  static MedrankIndex Build(const Collection* collection,
                            const MedrankConfig& config);

  /// Returns the k probable nearest neighbors in emission (rank) order.
  /// Distances are filled in from the collection for convenience; they are
  /// NOT used by the algorithm. k must be positive and at most the
  /// collection size. `telemetry`, when non-null, receives the unified
  /// query record (probes = lines walked, index_entries_scanned =
  /// sorted-access steps — the algorithm's I/O unit, in which Medrank is
  /// I/O-optimal; descriptors_scanned = emitted neighbors whose distances
  /// are filled in). Ids in `excluded` (sorted ascending) are refused where
  /// they would be emitted, so the walk goes on to the next live candidate;
  /// it stops with fewer than k when every line is exhausted.
  StatusOr<std::vector<Neighbor>> Search(
      std::span<const float> query, size_t k,
      QueryTelemetry* telemetry = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  size_t num_lines() const { return config_.num_lines; }

  /// Bytes of RAM the built lines hold resident (directions plus the sorted
  /// position and projection-value lists per line).
  size_t ResidentBytes() const {
    size_t bytes = directions_.size() * sizeof(float);
    for (const auto& p : sorted_positions_) bytes += p.size() * sizeof(uint32_t);
    for (const auto& v : sorted_values_) bytes += v.size() * sizeof(float);
    return bytes;
  }

 private:
  MedrankIndex(const Collection* collection, const MedrankConfig& config)
      : collection_(collection), config_(config) {}

  const Collection* collection_;
  MedrankConfig config_;
  /// Unit direction per line (num_lines * dim).
  std::vector<float> directions_;
  /// Per line: positions sorted by projection value, and the values.
  std::vector<std::vector<uint32_t>> sorted_positions_;
  std::vector<std::vector<float>> sorted_values_;
};

}  // namespace qvt

#endif  // QVT_CORE_MEDRANK_H_

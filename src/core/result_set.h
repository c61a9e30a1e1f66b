#ifndef QVT_CORE_RESULT_SET_H_
#define QVT_CORE_RESULT_SET_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "descriptor/types.h"
#include "geometry/kernels.h"

namespace qvt {

/// One nearest-neighbor candidate.
struct Neighbor {
  DescriptorId id = kInvalidDescriptorId;
  double distance = std::numeric_limits<double>::infinity();
};

/// True when `id` is in `excluded`, a list sorted ascending: the binary
/// search behind every dead-id filter.
bool IsExcluded(std::span<const DescriptorId> excluded, DescriptorId id);

/// Bounded max-heap holding the current k best candidates during a search.
/// Insert is O(log k) and a no-op when the candidate is worse than the
/// current k-th under (distance, id) order — exact-distance ties are broken
/// by the smaller descriptor id, so the final set does not depend on the
/// order candidates were offered (scan order, chunker, or thread schedule).
///
/// `excluded` (sorted ascending, borrowed) lists ids that must never be
/// kept: the dynamic layer's deleted rows. A candidate is checked against it
/// only after it has beaten the current k-th, so rows that would not enter
/// cost nothing extra, and a dead row never takes a slot — the k-th
/// distance, and with it every abandon threshold, is that of the live rows.
///
/// `bound` says the caller already holds k neighbors no farther than it
/// (the dynamic layer's running merged k-th): the set behaves as if seeded
/// with k phantoms at distance `bound` and an id above every real one, so
/// it refuses any candidate farther than `bound`, keeps ties at `bound`,
/// and KthDistance() never exceeds it. +inf (the default) changes nothing.
class KnnResultSet {
 public:
  explicit KnnResultSet(size_t k, std::span<const DescriptorId> excluded = {},
                        double bound = std::numeric_limits<double>::infinity());

  /// Offers a candidate; keeps it only if it improves the top-k and its id
  /// is not excluded. Returns true if the candidate entered the result set.
  bool Insert(DescriptorId id, double distance) {
    return Insert(id, distance, id);
  }

  /// Insert for sets keyed by something other than the descriptor id (the
  /// pq filter keys by code row): `key` orders and is stored, `id` is what
  /// the excluded list is checked against.
  bool Insert(DescriptorId key, double distance, DescriptorId id);

  /// Candidates refused because their id is excluded.
  uint64_t refused() const { return refused_; }

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Distance of the current k-th (worst kept) neighbor; the caller's
  /// bound (+inf by default) until full. This is the pruning bound of the
  /// exact stop rule (§4.3) and of every scan's row admission.
  double KthDistance() const {
    return heap_.size() < k_ ? bound_ : heap_.front().distance;
  }

  /// Current candidates, unordered (heap order). Stable for membership
  /// queries; use ExtractSorted for ranked output.
  std::span<const Neighbor> Unordered() const { return heap_; }

  /// Returns the candidates sorted by ascending distance, leaving the set
  /// intact.
  std::vector<Neighbor> Sorted() const;

  void Clear() {
    heap_.clear();
    refused_ = 0;
  }

 private:
  size_t k_;
  double bound_;
  std::span<const DescriptorId> excluded_;
  uint64_t refused_ = 0;
  std::vector<Neighbor> heap_;  // max-heap by distance
};

/// The admission step of every exact-distance scan (the chunked executor's
/// sweep, ExactScan, the dynamic buffer): offers one kernel block to `set`.
/// `squared[i]` is row i's squared distance from a kernel whose abandon
/// threshold was kernels::AbandonThreshold(set.KthDistance()) at the start
/// of the block, or kernels::kAbandoned where it pruned. A row whose squared
/// distance exceeds AbandonThreshold of the current limit (the set's k-th,
/// which its bound caps) is skipped before its sqrt; for the rest
/// `offer(i, distance)` inserts and returns true iff the set changed, and
/// only then is the limit re-derived. kernels::FirstNotAbove finds the
/// next row that passes, so a group of rows that all exceed the limit costs
/// one vector compare; survivors are offered in row order with the plain
/// `!(squared[i] > threshold)` test. The threshold's inflation means no row
/// that could enter the set, ties included, is ever skipped, so the set ends
/// bit-identical to offering every row; kAbandoned rows are skipped because
/// the limit never rises within a block.
template <typename Offer>
void AdmitRows(const double* squared, size_t count, const KnnResultSet& set,
               Offer&& offer) {
  double threshold = kernels::AbandonThreshold(set.KthDistance());
  size_t i = 0;
  while ((i += kernels::FirstNotAbove(squared + i, count - i, threshold)) <
         count) {
    if (offer(i, std::sqrt(squared[i]))) {
      threshold = kernels::AbandonThreshold(set.KthDistance());
    }
    ++i;
  }
}

}  // namespace qvt

#endif  // QVT_CORE_RESULT_SET_H_

#include "core/result_set.h"

#include <algorithm>

#include "util/logging.h"

namespace qvt {

namespace {
// Candidates are ordered by (distance, id); the heap keeps the lexicographic
// worst at the front. Breaking exact-distance ties by id makes the retained
// set independent of insertion order — serial, threaded, and differently
// chunked scans of the same candidates all report the same neighbors.
bool HeapLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}
}  // namespace

bool IsExcluded(std::span<const DescriptorId> excluded, DescriptorId id) {
  return !excluded.empty() &&
         std::binary_search(excluded.begin(), excluded.end(), id);
}

KnnResultSet::KnnResultSet(size_t k, std::span<const DescriptorId> excluded,
                           double bound)
    : k_(k), bound_(bound), excluded_(excluded) {
  QVT_CHECK(k > 0);
  QVT_CHECK(bound >= 0.0) << "result-set bound must be >= 0, got " << bound;
  heap_.reserve(k);
}

bool KnnResultSet::Insert(DescriptorId key, double distance,
                          DescriptorId id) {
  const bool full = heap_.size() == k_;
  if (full) {
    const Neighbor& worst = heap_.front();
    if (distance > worst.distance ||
        (distance == worst.distance && key >= worst.id)) {
      return false;
    }
  } else if (distance > bound_) {
    // Beyond the caller's k neighbors; once full, the worst kept is within
    // the bound, so the check above covers it.
    return false;
  }
  if (IsExcluded(excluded_, id)) {
    ++refused_;
    return false;
  }
  if (!full) {
    heap_.push_back({key, distance});
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return true;
  }
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = {key, distance};
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
  return true;
}

std::vector<Neighbor> KnnResultSet::Sorted() const {
  std::vector<Neighbor> result(heap_.begin(), heap_.end());
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  return result;
}

}  // namespace qvt

#ifndef QVT_CORE_EXACT_SCAN_H_
#define QVT_CORE_EXACT_SCAN_H_

#include <span>
#include <string>
#include <vector>

#include "core/result_set.h"
#include "descriptor/collection.h"
#include "descriptor/workload.h"
#include "util/env.h"
#include "util/statusor.h"

namespace qvt {

/// Exact k nearest neighbors of `query` by sequential scan of `collection`,
/// sorted by ascending distance. The reference answer every approximate
/// search is scored against (§5.4). Ids in `excluded` (sorted ascending)
/// are refused by the result set; `refused`, when non-null, receives how
/// many were.
std::vector<Neighbor> ExactScan(const Collection& collection,
                                std::span<const float> query, size_t k,
                                std::span<const DescriptorId> excluded = {},
                                uint64_t* refused = nullptr);

/// Precomputed exact answers for a whole workload — the paper's ground-truth
/// file ("we first ran a sequential scan of the collection, and stored the
/// identifiers of the returned descriptors in a file").
class GroundTruth {
 public:
  /// Runs the sequential scan for every query of `workload` against
  /// `collection` (the *retained* descriptors of the index under test, so
  /// completed searches reach 30/30).
  static GroundTruth Compute(const Collection& collection,
                             const Workload& workload, size_t k);

  size_t k() const { return k_; }
  size_t num_queries() const { return k_ == 0 ? 0 : ids_.size() / k_; }

  /// True-neighbor ids of query `q`, ascending by distance.
  std::span<const DescriptorId> TruthFor(size_t q) const {
    return {ids_.data() + q * k_, k_};
  }

  /// Binary round trip (id lists only), mirroring the paper's cached file.
  Status Save(Env* env, const std::string& path) const;
  static StatusOr<GroundTruth> Load(Env* env, const std::string& path);

 private:
  GroundTruth(size_t k, std::vector<DescriptorId> ids)
      : k_(k), ids_(std::move(ids)) {}

  size_t k_ = 0;
  std::vector<DescriptorId> ids_;  // num_queries * k
};

}  // namespace qvt

#endif  // QVT_CORE_EXACT_SCAN_H_

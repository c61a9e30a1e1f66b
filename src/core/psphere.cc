#include "core/psphere.h"

#include <algorithm>
#include <limits>

#include "core/search_method.h"
#include "geometry/vec.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {

PSphereTree PSphereTree::Build(const Collection* collection,
                               const PSphereConfig& config) {
  QVT_CHECK(collection != nullptr);
  QVT_CHECK(!collection->empty());
  QVT_CHECK(config.num_spheres >= 1);
  QVT_CHECK(config.fill_factor >= 1.0);

  const size_t dim = collection->dim();
  const size_t n = collection->size();
  const size_t num_spheres = std::min(config.num_spheres, n);
  const size_t per_sphere = std::min<size_t>(
      n, std::max<size_t>(
             1, static_cast<size_t>(config.fill_factor *
                                    static_cast<double>(n) /
                                    static_cast<double>(num_spheres))));

  PSphereTree tree(collection, dim);
  Rng rng(config.seed);
  const auto picks = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(n), static_cast<uint32_t>(num_spheres));

  tree.centers_.reserve(num_spheres * dim);
  tree.members_.resize(num_spheres);
  std::vector<std::pair<double, uint32_t>> by_distance(n);
  for (size_t s = 0; s < num_spheres; ++s) {
    const auto center = collection->Vector(picks[s]);
    tree.centers_.insert(tree.centers_.end(), center.begin(), center.end());

    // The L nearest vectors to the center (replication across spheres).
    for (size_t i = 0; i < n; ++i) {
      by_distance[i] = {vec::SquaredDistance(center, collection->Vector(i)),
                        static_cast<uint32_t>(i)};
    }
    std::nth_element(by_distance.begin(),
                     by_distance.begin() + (per_sphere - 1),
                     by_distance.end());
    auto& members = tree.members_[s];
    members.reserve(per_sphere);
    for (size_t i = 0; i < per_sphere; ++i) {
      members.push_back(by_distance[i].second);
    }
  }
  return tree;
}

double PSphereTree::ReplicationFactor() const {
  size_t stored = 0;
  for (const auto& members : members_) stored += members.size();
  return static_cast<double>(stored) /
         static_cast<double>(collection_->size());
}

StatusOr<std::vector<Neighbor>> PSphereTree::Search(
    std::span<const float> query, size_t k, QueryTelemetry* telemetry,
    std::span<const DescriptorId> excluded) const {
  QVT_RETURN_IF_ERROR(ValidateQuery(query, dim_));
  if (k == 0) return Status::InvalidArgument("k must be positive");

  WallClock wall;
  Stopwatch stopwatch(&wall);
  QueryTelemetry telem;

  // Nearest center... (the plan stage: picking the one sphere to probe)
  size_t best = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < num_spheres(); ++s) {
    const std::span<const float> center(centers_.data() + s * dim_, dim_);
    const double sq = vec::SquaredDistance(center, query);
    if (sq < best_sq) {
      best_sq = sq;
      best = s;
    }
  }
  telem.index_entries_scanned = num_spheres();
  telem.plan.wall_micros = stopwatch.ElapsedMicros();

  // ...and a single sequential scan of its members.
  KnnResultSet result(k, excluded);
  for (uint32_t pos : members_[best]) {
    result.Insert(collection_->Id(pos),
                  vec::Distance(collection_->Vector(pos), query));
  }
  telem.probes = 1;
  telem.candidates_examined = members_[best].size();
  telem.descriptors_scanned = members_[best].size();
  telem.bytes_read =
      telem.descriptors_scanned * DescriptorRecordBytes(dim_);
  telem.tombstones_filtered = result.refused();
  telem.wall_micros = stopwatch.ElapsedMicros();
  telem.scan.wall_micros = telem.wall_micros - telem.plan.wall_micros;
  if (telemetry != nullptr) *telemetry = telem;
  return result.Sorted();
}

}  // namespace qvt

#ifndef QVT_CORE_PSPHERE_H_
#define QVT_CORE_PSPHERE_H_

#include <cstdint>
#include <vector>

#include "core/result_set.h"
#include "core/telemetry.h"
#include "descriptor/collection.h"
#include "util/statusor.h"

namespace qvt {

/// Configuration of the P-Sphere tree (Goldstein & Ramakrishnan, VLDB'00 —
/// the paper's related work [12]): trade disk *space* for search *time* by
/// replicating vectors into overlapping hyperspheres.
struct PSphereConfig {
  /// Number of sphere centers (sampled from the data).
  size_t num_spheres = 64;
  /// Vectors stored per sphere: the fill-factor times the fair share
  /// n / num_spheres. Values > 1 create the overlap/replication that makes
  /// single-sphere scans accurate.
  double fill_factor = 4.0;
  uint64_t seed = 31337;
};

/// P-Sphere search: each sphere stores the L nearest descriptors to its
/// center; a query scans exactly one sphere — the one with the nearest
/// center. One seek, one sequential scan, probabilistic accuracy that grows
/// with the replication factor. As §6 notes, the scheme cannot guarantee
/// anything beyond the first nearest neighbor.
class PSphereTree {
 public:
  /// Builds the spheres over `collection` (borrowed; must outlive the tree).
  static PSphereTree Build(const Collection* collection,
                           const PSphereConfig& config);

  /// Approximate k-NN from the single nearest sphere. `telemetry`, when
  /// non-null, receives the unified query record (probes = 1 sphere,
  /// index_entries_scanned = sphere centers ranked, descriptors_scanned =
  /// members of the probed sphere). Ids in `excluded` (sorted ascending)
  /// are refused by the result set.
  StatusOr<std::vector<Neighbor>> Search(
      std::span<const float> query, size_t k,
      QueryTelemetry* telemetry = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  size_t num_spheres() const { return centers_.size() / dim_; }
  /// Total stored vectors across spheres / collection size (>= 1).
  double ReplicationFactor() const;

  /// Bytes of RAM the built spheres hold resident (centers plus the
  /// replicated member position lists).
  size_t ResidentBytes() const {
    size_t bytes = centers_.size() * sizeof(float);
    for (const auto& m : members_) bytes += m.size() * sizeof(uint32_t);
    return bytes;
  }

 private:
  PSphereTree(const Collection* collection, size_t dim)
      : collection_(collection), dim_(dim) {}

  const Collection* collection_;
  size_t dim_;
  std::vector<float> centers_;                    // num_spheres * dim
  std::vector<std::vector<uint32_t>> members_;    // positions per sphere
};

}  // namespace qvt

#endif  // QVT_CORE_PSPHERE_H_

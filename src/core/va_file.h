#ifndef QVT_CORE_VA_FILE_H_
#define QVT_CORE_VA_FILE_H_

#include <cstdint>
#include <vector>

#include "core/result_set.h"
#include "core/telemetry.h"
#include "descriptor/collection.h"
#include "util/statusor.h"

namespace qvt {

/// Configuration of the VA-file (Weber, Schek, Blott, VLDB'98; the
/// approximate variant interrupting after a fixed number of refinements is
/// the Weber & Böhm EDBT'00 scheme cited in the paper's related work, §6).
struct VaFileConfig {
  /// Bits of quantization per dimension (cells per dim = 2^bits). At most 8.
  size_t bits_per_dim = 4;
};

/// Vector-Approximation file: a flat array of per-dimension quantized cell
/// codes (the "approximation") scanned in full for every query. Cell
/// geometry gives per-vector lower/upper distance bounds; vectors whose
/// lower bound cannot beat the current k-th upper bound are filtered, and
/// only the survivors are refined with exact distances. The sequential-scan
/// friend of high-dimensional search that tree indexes degrade to (§1).
class VaFile {
 public:
  /// Builds the approximation file over `collection` (borrowed; must
  /// outlive the VaFile).
  static VaFile Build(const Collection* collection,
                      const VaFileConfig& config);

  /// Exact k-NN: full phase-1 scan, then refinement of all candidates in
  /// ascending lower-bound order with pruning. Matches a sequential scan's
  /// answer (tested). `telemetry`, when non-null, receives the unified query
  /// record (index_entries_scanned = phase-1 approximations, always the
  /// whole file; candidates_examined = phase-1 survivors;
  /// descriptors_scanned = exact vectors refined in phase 2).
  ///
  /// Ids in `excluded` (sorted ascending) are refused when they would
  /// become phase-1 candidates, before their upper bound enters the
  /// k-th-bound heap: a dead row's bound would prune live rows it cannot
  /// stand in for, and the answer would no longer be exact over the live
  /// rows.
  StatusOr<std::vector<Neighbor>> Search(
      std::span<const float> query, size_t k,
      QueryTelemetry* telemetry = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  /// Approximate k-NN: like Search but phase 2 stops after at most
  /// `max_refinements` exact-vector fetches (the EDBT'00 interrupt).
  StatusOr<std::vector<Neighbor>> SearchApproximate(
      std::span<const float> query, size_t k, size_t max_refinements,
      QueryTelemetry* telemetry = nullptr,
      std::span<const DescriptorId> excluded = {}) const;

  /// Bytes of the approximation array (the compression the VA-file buys).
  size_t ApproximationBytes() const { return codes_.size(); }

  /// Bytes of RAM the built structure holds resident (grid boundaries plus
  /// the cell-code array).
  size_t ResidentBytes() const {
    return boundaries_.size() * sizeof(float) + codes_.size();
  }

 private:
  VaFile(const Collection* collection, const VaFileConfig& config)
      : collection_(collection), config_(config) {}

  StatusOr<std::vector<Neighbor>> SearchInternal(
      std::span<const float> query, size_t k, size_t max_refinements,
      QueryTelemetry* telemetry,
      std::span<const DescriptorId> excluded) const;

  /// Squared lower/upper bound contributions of dimension d for cell code c.
  void QueryBounds(std::span<const float> query,
                   std::vector<double>* lower_sq,
                   std::vector<double>* upper_sq) const;

  const Collection* collection_;
  VaFileConfig config_;
  size_t cells_ = 0;
  /// Per-dimension grid boundaries: boundaries_[d * (cells_+1) + c].
  std::vector<float> boundaries_;
  /// Cell codes, one byte per dimension per vector (n * dim).
  std::vector<uint8_t> codes_;
};

}  // namespace qvt

#endif  // QVT_CORE_VA_FILE_H_

#ifndef QVT_DESCRIPTOR_COLLECTION_H_
#define QVT_DESCRIPTOR_COLLECTION_H_

#include <span>
#include <string>
#include <vector>

#include "descriptor/types.h"
#include "util/env.h"
#include "util/status.h"
#include "util/statusor.h"

namespace qvt {

/// An in-memory descriptor collection: N vectors of fixed dimension with
/// per-descriptor ids and (optionally) source-image ids.
///
/// Storage is a single flat float array for cache-friendly sequential scans;
/// a descriptor is addressed by its position [0, size()), which is distinct
/// from its DescriptorId (ids survive subsetting/outlier removal, positions
/// do not).
class Collection {
 public:
  /// Creates an empty collection of the given dimensionality.
  explicit Collection(size_t dim = kDescriptorDim);

  Collection(const Collection&) = default;
  Collection& operator=(const Collection&) = default;
  Collection(Collection&&) noexcept = default;
  Collection& operator=(Collection&&) noexcept = default;

  size_t dim() const { return dim_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Appends one descriptor. `values.size()` must equal dim().
  void Append(DescriptorId id, std::span<const float> values,
              ImageId image_id = 0);

  /// Vector of descriptor at position `pos`.
  std::span<const float> Vector(size_t pos) const {
    return {data_.data() + pos * dim_, dim_};
  }

  DescriptorId Id(size_t pos) const { return ids_[pos]; }
  ImageId Image(size_t pos) const { return image_ids_[pos]; }

  /// Raw flat storage (size() * dim() floats).
  std::span<const float> RawData() const { return data_; }
  std::span<const DescriptorId> Ids() const { return ids_; }

  /// New collection containing the descriptors at `positions`, in order.
  Collection Subset(std::span<const size_t> positions) const;

  /// Serializes to the paper's sequential record file format (types.h).
  /// Image ids are written to `path + ".img"` as raw uint32s.
  Status Save(Env* env, const std::string& path) const;

  /// Loads a collection saved with Save(). `dim` must match the writer's.
  /// A NaN or ±Inf coordinate is Corruption naming the record position.
  static StatusOr<Collection> Load(Env* env, const std::string& path,
                                   size_t dim = kDescriptorDim);

  /// Reserves space for n descriptors.
  void Reserve(size_t n);

 private:
  size_t dim_;
  std::vector<float> data_;          // size() * dim_ floats
  std::vector<DescriptorId> ids_;    // size()
  std::vector<ImageId> image_ids_;   // size()
};

}  // namespace qvt

#endif  // QVT_DESCRIPTOR_COLLECTION_H_

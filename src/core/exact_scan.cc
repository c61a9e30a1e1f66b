#include "core/exact_scan.h"

#include <cstring>

#include "geometry/kernels.h"
#include "util/logging.h"

namespace qvt {

std::vector<Neighbor> ExactScan(const Collection& collection,
                                std::span<const float> query, size_t k,
                                std::span<const DescriptorId> excluded,
                                uint64_t* refused) {
  QVT_CHECK(k > 0);
  KnnResultSet result(k, excluded);
  // Blocked kernel scan with early abandon against the running k-th
  // distance; AdmitRows keeps the output bit-identical to the naive
  // per-descriptor loop.
  constexpr size_t kBlock = 256;
  const size_t dim = collection.dim();
  const float* base = collection.RawData().data();
  const std::span<const DescriptorId> ids = collection.Ids();
  std::vector<double> distances(std::min(collection.size(), kBlock));
  for (size_t b = 0; b < collection.size(); b += kBlock) {
    const size_t bn = std::min(kBlock, collection.size() - b);
    kernels::BatchSquaredDistanceAbandon(
        base + b * dim, bn, dim, query,
        kernels::AbandonThreshold(result.KthDistance()), distances.data());
    AdmitRows(distances.data(), bn, result, [&](size_t i, double distance) {
      return result.Insert(ids[b + i], distance);
    });
  }
  if (refused != nullptr) *refused = result.refused();
  return result.Sorted();
}

GroundTruth GroundTruth::Compute(const Collection& collection,
                                 const Workload& workload, size_t k) {
  QVT_CHECK(collection.size() >= k)
      << "collection smaller than k; ground truth undefined";
  std::vector<DescriptorId> ids;
  ids.reserve(workload.num_queries() * k);
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    const std::vector<Neighbor> neighbors =
        ExactScan(collection, workload.Query(q), k);
    for (const Neighbor& n : neighbors) ids.push_back(n.id);
  }
  return GroundTruth(k, std::move(ids));
}

Status GroundTruth::Save(Env* env, const std::string& path) const {
  auto file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();
  const uint64_t header[2] = {static_cast<uint64_t>(k_),
                              static_cast<uint64_t>(num_queries())};
  QVT_RETURN_IF_ERROR((*file)->Append(header, sizeof(header)));
  if (!ids_.empty()) {
    QVT_RETURN_IF_ERROR(
        (*file)->Append(ids_.data(), ids_.size() * sizeof(DescriptorId)));
  }
  return (*file)->Close();
}

StatusOr<GroundTruth> GroundTruth::Load(Env* env, const std::string& path) {
  auto bytes = ReadFileBytes(env, path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() < 2 * sizeof(uint64_t)) {
    return Status::Corruption("ground-truth file too small");
  }
  uint64_t header[2];
  std::memcpy(header, bytes->data(), sizeof(header));
  const size_t k = static_cast<size_t>(header[0]);
  const size_t num_queries = static_cast<size_t>(header[1]);
  const size_t expected =
      2 * sizeof(uint64_t) + num_queries * k * sizeof(DescriptorId);
  if (bytes->size() != expected || k == 0) {
    return Status::Corruption("ground-truth file size mismatch");
  }
  std::vector<DescriptorId> ids(num_queries * k);
  std::memcpy(ids.data(), bytes->data() + 2 * sizeof(uint64_t),
              ids.size() * sizeof(DescriptorId));
  return GroundTruth(k, std::move(ids));
}

}  // namespace qvt

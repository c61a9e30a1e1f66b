#include "dynamic/mutable_buffer.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "descriptor/types.h"
#include "geometry/kernels.h"
#include "util/logging.h"

namespace qvt {

MutableBuffer::MutableBuffer(size_t dim, size_t capacity, uint64_t base_seq)
    : dim_(dim),
      capacity_(std::max<size_t>(1, capacity)),
      base_seq_(base_seq),
      data_(new float[capacity_ * dim_]),
      ids_(new DescriptorId[capacity_]),
      images_(new ImageId[capacity_]),
      seqs_(new uint64_t[capacity_]) {
  QVT_CHECK(dim_ > 0);
}

void MutableBuffer::Append(DescriptorId id, ImageId image, uint64_t seq,
                           std::span<const float> values) {
  const size_t row = committed_.load(std::memory_order_relaxed);
  QVT_CHECK(row < capacity_) << "append into a full mutable buffer";
  QVT_CHECK(values.size() == dim_);
  std::copy(values.begin(), values.end(), data_.get() + row * dim_);
  ids_[row] = id;
  images_[row] = image;
  seqs_[row] = seq;
  // Publish: readers that acquire-load committed() >= row + 1 see the row's
  // bytes complete.
  committed_.store(row + 1, std::memory_order_release);
}

uint64_t MutableBuffer::Scan(std::span<const float> query, size_t rows,
                             std::span<const uint64_t> tombstone_seqs,
                             KnnResultSet* result,
                             QueryTelemetry* telemetry) const {
  QVT_CHECK(rows <= capacity_ && tombstone_seqs.size() >= rows);
  uint64_t filtered = 0;
  constexpr size_t kBlock = 256;
  const size_t block = std::min(rows, kBlock);
  std::vector<double> distances(block);
  std::vector<uint32_t> survivors(block);
  const std::vector<double> wide_query(query.begin(), query.end());
  // Offers row `row` at its exact distance: a dead row is refused and
  // counted.
  const auto offer = [&](size_t row, double distance) {
    if (tombstone_seqs[row] > seqs_[row]) {
      ++filtered;
      return false;
    }
    return result->Insert(ids_[row], distance);
  };
  for (size_t b = 0; b < rows; b += kBlock) {
    const size_t bn = std::min(kBlock, rows - b);
    const float* block_rows = data_.get() + b * dim_;
    const double limit = result->KthDistance();
    if (!(limit < std::numeric_limits<double>::infinity())) {
      kernels::BatchSquaredDistance(block_rows, bn, dim_, wide_query,
                                    distances.data());
      AdmitRows(distances.data(), bn, *result, [&](size_t i, double distance) {
        return offer(b + i, distance);
      });
      continue;
    }
    // Under a finite limit the float bound filter drops the rows whose
    // exact value provably exceeds the block-start threshold, which
    // admission would never have offered (the limit only falls), and the
    // survivors get their exact values: the rows offered, and so the dead
    // rows refused, are the plain scan's (DESIGN.md "Float bound filter").
    const size_t kept = kernels::FloatBoundFilter(
        block_rows, bn, dim_, query, kernels::AbandonThreshold(limit),
        survivors.data());
    kernels::GatherSquaredDistance(block_rows, dim_, {survivors.data(), kept},
                                   wide_query, distances.data());
    AdmitRows(distances.data(), kept, *result,
              [&](size_t i, double distance) {
                return offer(b + survivors[i], distance);
              });
  }
  if (telemetry != nullptr) {
    uint64_t dead = 0;
    for (size_t row = 0; row < rows; ++row) {
      dead += tombstone_seqs[row] > seqs_[row] ? 1 : 0;
    }
    telemetry->candidates_examined += rows;
    telemetry->descriptors_scanned += rows - dead;
    telemetry->bytes_read += (rows - dead) * DescriptorRecordBytes(dim_);
    telemetry->tombstones_filtered += filtered;
  }
  return filtered;
}

}  // namespace qvt

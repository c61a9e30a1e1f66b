#ifndef QVT_DYNAMIC_MUTABLE_BUFFER_H_
#define QVT_DYNAMIC_MUTABLE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "core/result_set.h"
#include "core/telemetry.h"
#include "descriptor/types.h"

namespace qvt {

/// The mutable head of a dynamic index: a fixed-capacity, append-only row
/// buffer that inserts land in before any shard exists for them (the
/// MutableBuffer of the Bentley-Saxe scheme). Deletes never touch it — they
/// are tombstones held by the version, filtered at query time.
///
/// Concurrency contract (what makes reads lock-free and TSan-clean):
///  * All storage is preallocated at construction and never reallocates.
///  * Exactly one writer appends at a time (the dynamic index serializes
///    mutations); Append fills row `committed` and then publishes it with a
///    release store of committed + 1.
///  * Any thread may read rows [0, committed()) after an acquire load —
///    those rows are immutable from the moment they are published.
class MutableBuffer {
 public:
  /// `base_seq` is the sequence number the buffer was opened at: every row
  /// appended later carries a seq >= base_seq, and every row of every
  /// pre-existing shard carries a smaller one. The flush path uses it as
  /// the new shard's insertion-order key.
  MutableBuffer(size_t dim, size_t capacity, uint64_t base_seq);

  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }
  uint64_t base_seq() const { return base_seq_; }

  /// Rows visible to the calling thread (acquire).
  size_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// Writer-only. Requires committed() < capacity() and values.size() ==
  /// dim(). `seq` is the row's insertion sequence number.
  void Append(DescriptorId id, ImageId image, uint64_t seq,
              std::span<const float> values);

  // Row accessors; `row` must be < the committed() the caller observed.
  std::span<const float> Vector(size_t row) const {
    return {data_.get() + row * dim_, dim_};
  }
  DescriptorId id(size_t row) const { return ids_[row]; }
  ImageId image(size_t row) const { return images_[row]; }
  uint64_t seq(size_t row) const { return seqs_[row]; }

  /// Exact k-NN over the first `rows` committed rows, merged into
  /// `result` (whose k-th distance prunes the scan from its first row).
  /// `tombstone_seqs[i]` is the tombstone seq of row i's id (0 for none); a
  /// row is skipped as deleted iff its tombstone seq is greater than the
  /// row's own seq, so a re-inserted id's fresh row survives its older
  /// tombstone. Scans 256-row blocks as a chunk sweep does: the exact
  /// kernel over every row while the result's limit is +inf, else the float
  /// bound filter and the exact kernel over its survivors, then the same
  /// AdmitRows step, so buffer hits are bit-identical to what a flushed
  /// shard would return for the same rows. Returns the number of
  /// deleted rows that passed admission and were refused — a dead row
  /// beyond the result's k-th is not counted; `telemetry`, when non-null,
  /// accrues the scan counters (descriptors_scanned and bytes_read count
  /// every live row).
  uint64_t Scan(std::span<const float> query, size_t rows,
                std::span<const uint64_t> tombstone_seqs, KnnResultSet* result,
                QueryTelemetry* telemetry) const;

  size_t ResidentBytes() const {
    return capacity_ * (dim_ * sizeof(float) + sizeof(DescriptorId) +
                        sizeof(ImageId) + sizeof(uint64_t));
  }

 private:
  size_t dim_;
  size_t capacity_;
  uint64_t base_seq_;
  std::unique_ptr<float[]> data_;
  std::unique_ptr<DescriptorId[]> ids_;
  std::unique_ptr<ImageId[]> images_;
  std::unique_ptr<uint64_t[]> seqs_;
  std::atomic<size_t> committed_{0};
};

}  // namespace qvt

#endif  // QVT_DYNAMIC_MUTABLE_BUFFER_H_

#ifndef QVT_STORAGE_PQ_FILE_H_
#define QVT_STORAGE_PQ_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "storage/format.h"
#include "util/env.h"
#include "util/status.h"
#include "util/statusor.h"

namespace qvt {

/// Product-quantization compressed-collection file "QVTPQC01", version 1
/// (little endian, storage/format.h envelope):
///
///   header (64 bytes):
///     0  u64 magic          "QVTPQC01"
///     8  u32 format version 1
///     12 u32 dim            > 0
///     16 u32 m              divides dim, in [1, dim]
///     20 u32 ksub           in [1, 256]
///     24 u64 num_vectors    > 0
///     32 u64 codebooks_off  64-aligned; f32[m * ksub * (dim / m)]
///     40 u64 codes_off      64-aligned; u8[num_vectors * m]
///     48 u64 ids_off        64-aligned; u32[num_vectors]
///     56 u64 footer_off     == file size - 16
///   sections at the declared offsets, zero-padded gaps between them
///   footer (16 bytes): u32 crc32 of [0, footer_off), u32 reserved,
///     u64 magic echo
///
/// The codebook section is exactly the concatenated row-major layout
/// kernels::BuildAdcTable consumes, and the code section is the packed
/// row-major matrix the ADC scan kernels stream — both zero-copy from a
/// mapping. The id sidecar maps scan positions back to descriptor ids.
inline constexpr uint64_t kPqMagic = 0x3130435150545651ull;  // "QVTPQC01"
inline constexpr uint32_t kPqFormatVersion = 1;

/// Parsed copy of the header words.
struct PqFileHeader {
  uint32_t version = 0;
  uint32_t dim = 0;
  uint32_t m = 0;
  uint32_t ksub = 0;
  uint64_t num_vectors = 0;
  uint64_t codebooks_off = 0;
  uint64_t codes_off = 0;
  uint64_t ids_off = 0;
  uint64_t footer_off = 0;
};

/// Zero-copy view of one compressed-collection file: owns the mapping and
/// exposes the sections as typed spans pointing straight into it.
/// Move-only; spans stay valid across moves.
class PqFileView {
 public:
  /// Validates the envelope, the section geometry and every entry of
  /// `file` (ValidateEntries; O(codes), the matrix a query's first pass
  /// scans anyway) and takes ownership. The whole-file CRC is the separate
  /// VerifyCrc. `expected_dim` guards against codebooks for a different
  /// descriptor type; 0 skips the check.
  static StatusOr<PqFileView> Open(std::unique_ptr<MemoryMappedFile> file,
                                   std::string path, size_t expected_dim);

  PqFileView(PqFileView&&) = default;
  PqFileView& operator=(PqFileView&&) = default;

  size_t dim() const { return header_.dim; }
  size_t m() const { return header_.m; }
  size_t ksub() const { return header_.ksub; }
  size_t sub_dim() const { return header_.dim / header_.m; }
  size_t num_vectors() const { return header_.num_vectors; }
  const PqFileHeader& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Concatenated row-major subspace codebooks, base 64-byte-aligned —
  /// feeds kernels::BuildAdcTable without a copy.
  std::span<const float> codebooks() const {
    return {codebooks_,
            static_cast<size_t>(header_.m) * header_.ksub * sub_dim()};
  }
  /// Packed num_vectors × m code matrix — feeds the ADC scan kernels.
  std::span<const uint8_t> codes() const {
    return {codes_, header_.num_vectors * header_.m};
  }
  /// Descriptor id of each code row.
  std::span<const uint32_t> ids() const {
    return {ids_, header_.num_vectors};
  }

  /// CRC over the whole payload — run by fsck, not by Open.
  /// ValidateEntries checks the per-entry invariants (finite codebook
  /// floats, every code below ksub); Open runs it.
  Status VerifyCrc() const;
  Status ValidateEntries() const;

 private:
  PqFileView(std::unique_ptr<MemoryMappedFile> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  std::unique_ptr<MemoryMappedFile> file_;
  std::string path_;
  PqFileHeader header_;
  const float* codebooks_ = nullptr;
  const uint8_t* codes_ = nullptr;
  const uint32_t* ids_ = nullptr;
};

/// Writes the whole compressed-collection file in one shot: to
/// `path + ".tmp"`, then an atomic rename onto `path`, so a crash never
/// leaves a torn file behind. `codebooks` must hold m * ksub * (dim / m)
/// floats, `codes` num_vectors * m bytes, `ids` one id per code row.
Status WritePqFile(Env* env, const std::string& path, size_t dim, size_t m,
                   size_t ksub, std::span<const float> codebooks,
                   std::span<const uint8_t> codes,
                   std::span<const uint32_t> ids);

/// Opens the compressed-collection file at `path`: maps it
/// (Env::NewMemoryMappedFile) and runs PqFileView::Open's envelope and
/// per-entry checks.
StatusOr<PqFileView> OpenPqFile(Env* env, const std::string& path,
                                size_t dim);

}  // namespace qvt

#endif  // QVT_STORAGE_PQ_FILE_H_

#ifndef QVT_STORAGE_FORMAT_H_
#define QVT_STORAGE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "util/env.h"
#include "util/status.h"
#include "util/statusor.h"

namespace qvt {

// Shared machinery of the versioned flat on-disk formats (the chunk index
// file, the PQ code file and the dynamic manifest). All follow the same
// envelope:
//
//   [ 64-byte header: magic, format version, dim, counts, section offsets ]
//   [ section 0 ... ]   each section starts at a 64-byte-aligned offset,
//   [ section 1 ... ]   zero-padded up to the next section
//   [ ...          ]
//   [ 16-byte footer: crc32 of everything before it, magic echo ]
//
// All integers and floats are little-endian; record layouts are fixed-size,
// so a section is directly addressable as `base + i * record_bytes`. Because
// the file offset of every section is a multiple of kSectionAlignment and a
// memory mapping is page-aligned, a mapped section pointer is always aligned
// for its element type (and for the 32-byte SIMD kernel contract) — the
// zero-copy open path builds spans straight into the mapping.

/// Every section begins at a multiple of this file offset. 64 covers the
/// SIMD kernel alignment contract (kKernelAlignment = 32) with room to grow
/// to AVX-512, and matches a cache line.
inline constexpr size_t kSectionAlignment = 64;
inline constexpr size_t kFormatHeaderBytes = 64;
inline constexpr size_t kFormatFooterBytes = 16;

// The flat formats store native little-endian words; a big-endian port would
// need byte-swapping readers.
static_assert(std::endian::native == std::endian::little,
              "qvt on-disk formats are little-endian");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes,
/// continuing from `seed` (pass the previous return value to checksum a file
/// in pieces; start with 0).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Rounds `offset` up to the next section boundary.
inline constexpr uint64_t AlignUp(uint64_t offset,
                                  uint64_t alignment = kSectionAlignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

/// Unaligned little-endian field loads. All record readers go through these
/// (never through pointer casts of packed record interiors), so a field
/// whose offset is not a multiple of its size — e.g. the float64 radius
/// after an odd-dim float32 centroid — is still a well-defined load.
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline float LoadF32(const uint8_t* p) {
  float v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline double LoadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Builds one formatted file: accumulates the header, sections (padded to
/// kSectionAlignment), and running CRC, then writes the footer. The file is
/// written to `path + ".tmp"` and atomically renamed into place by Finish(),
/// so readers never observe a partial file and a crash leaves the previous
/// version intact.
class FormatWriter {
 public:
  /// Opens `path + ".tmp"` for writing. `magic` is the 8-byte format magic.
  static StatusOr<FormatWriter> Create(Env* env, const std::string& path,
                                       uint64_t magic);

  FormatWriter(FormatWriter&&) = default;
  FormatWriter& operator=(FormatWriter&&) = default;

  /// Appends raw bytes, feeding the running CRC.
  Status Append(const void* data, size_t size);

  /// Zero-pads to the next section boundary and returns the section's file
  /// offset. Call before writing each section (and after the header, which
  /// is exactly 64 bytes, this is a no-op).
  StatusOr<uint64_t> BeginSection();

  /// Bytes appended so far.
  uint64_t offset() const { return offset_; }

  /// Writes the footer (CRC of all preceding bytes + magic echo), closes
  /// the temp file, and renames it over `path`.
  Status Finish();

 private:
  FormatWriter(Env* env, std::string path,
               std::unique_ptr<WritableFile> file, uint64_t magic)
      : env_(env), path_(std::move(path)), file_(std::move(file)),
        magic_(magic) {}

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t magic_ = 0;
  uint64_t offset_ = 0;
  uint32_t crc_ = 0;
};

/// Read-side view of one formatted file: a borrowed byte span (a memory
/// mapping or a read-into-memory buffer) plus the validation helpers every
/// format shares. Validation failures name the file and byte offset.
class FormatView {
 public:
  FormatView(std::span<const uint8_t> bytes, std::string path)
      : bytes_(bytes), path_(std::move(path)) {}

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  const std::string& path() const { return path_; }

  /// Checks the envelope: minimum size, header magic, expected format
  /// version, and the footer's magic echo at the declared end. O(1) — CRC
  /// verification is separate (see VerifyCrc); opens do not run it.
  Status CheckEnvelope(uint64_t magic, uint32_t expected_version) const;

  /// Recomputes the CRC over everything before the footer and compares it
  /// to the stored value. Linear in file size; fsck runs it, opens do not.
  Status VerifyCrc() const;

  /// Returns a pointer to `count * record_bytes` bytes at `offset`, after
  /// checking that the range lies inside the file (before the footer) and
  /// that `offset` is section-aligned.
  StatusOr<const uint8_t*> Section(uint64_t offset, uint64_t count,
                                   uint64_t record_bytes,
                                   const char* what) const;

  /// Error constructor: "<what> in <path> at offset <offset>".
  Status CorruptionAt(uint64_t offset, const std::string& what) const;

 private:
  std::span<const uint8_t> bytes_;
  std::string path_;
};

}  // namespace qvt

#endif  // QVT_STORAGE_FORMAT_H_

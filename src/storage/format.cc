#include "storage/format.h"

#include <array>


namespace qvt {

namespace {

// Table-driven CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the zlib/gzip
// polynomial, hand-rolled to keep the storage layer dependency-free.
std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// FormatWriter
// ---------------------------------------------------------------------------

StatusOr<FormatWriter> FormatWriter::Create(Env* env, const std::string& path,
                                            uint64_t magic) {
  auto file = env->NewWritableFile(path + ".tmp");
  if (!file.ok()) return file.status();
  return FormatWriter(env, path, std::move(file).value(), magic);
}

Status FormatWriter::Append(const void* data, size_t size) {
  QVT_RETURN_IF_ERROR(file_->Append(data, size));
  crc_ = Crc32(data, size, crc_);
  offset_ += size;
  return Status::OK();
}

StatusOr<uint64_t> FormatWriter::BeginSection() {
  static constexpr std::array<uint8_t, kSectionAlignment> kZeros = {};
  const uint64_t aligned = AlignUp(offset_);
  if (aligned != offset_) {
    QVT_RETURN_IF_ERROR(Append(kZeros.data(), aligned - offset_));
  }
  return offset_;
}

Status FormatWriter::Finish() {
  // Footer: crc over [0, offset_), reserved word, magic echo. The echo lets
  // a reader find a plausible end-of-file without trusting the header, and
  // catches truncation in O(1).
  uint8_t footer[kFormatFooterBytes] = {};
  const uint32_t crc = crc_;
  std::memcpy(footer, &crc, sizeof(crc));
  std::memcpy(footer + 8, &magic_, sizeof(magic_));
  QVT_RETURN_IF_ERROR(file_->Append(footer, sizeof(footer)));
  offset_ += sizeof(footer);
  QVT_RETURN_IF_ERROR(file_->Close());
  return env_->RenameFile(path_ + ".tmp", path_);
}

// ---------------------------------------------------------------------------
// FormatView
// ---------------------------------------------------------------------------

Status FormatView::CorruptionAt(uint64_t offset,
                                const std::string& what) const {
  return Status::Corruption(what + " in " + path_ + " at offset " +
                            std::to_string(offset));
}

Status FormatView::CheckEnvelope(uint64_t magic,
                                 uint32_t expected_version) const {
  if (size() < kFormatHeaderBytes + kFormatFooterBytes) {
    return CorruptionAt(size(), "file too small for header and footer");
  }
  if (LoadU64(data()) != magic) {
    return CorruptionAt(0, "bad magic");
  }
  const uint32_t version = LoadU32(data() + 8);
  if (version != expected_version) {
    return CorruptionAt(8, "unsupported format version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(expected_version) + ")");
  }
  const uint64_t footer_off = size() - kFormatFooterBytes;
  if (LoadU64(data() + footer_off + 8) != magic) {
    return CorruptionAt(footer_off + 8, "bad footer magic echo");
  }
  return Status::OK();
}

Status FormatView::VerifyCrc() const {
  if (size() < kFormatHeaderBytes + kFormatFooterBytes) {
    return CorruptionAt(size(), "file too small for header and footer");
  }
  const uint64_t footer_off = size() - kFormatFooterBytes;
  const uint32_t stored = LoadU32(data() + footer_off);
  const uint32_t actual = Crc32(data(), footer_off);
  if (stored != actual) {
    return CorruptionAt(footer_off, "crc mismatch");
  }
  return Status::OK();
}

StatusOr<const uint8_t*> FormatView::Section(uint64_t offset, uint64_t count,
                                             uint64_t record_bytes,
                                             const char* what) const {
  if (offset % kSectionAlignment != 0) {
    return CorruptionAt(offset, std::string(what) + " section misaligned");
  }
  const uint64_t payload_end = size() - kFormatFooterBytes;
  // Division instead of `count * record_bytes` keeps a hostile header from
  // wrapping the bound check around uint64.
  if (offset > payload_end ||
      (record_bytes > 0 && count > (payload_end - offset) / record_bytes)) {
    return CorruptionAt(offset, std::string(what) + " section out of bounds");
  }
  return data() + offset;
}

}  // namespace qvt

#include "storage/pq_file.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace qvt {

namespace {

/// Section offsets follow deterministically from (dim, m, ksub,
/// num_vectors), so the writer computes the header up front and the reader
/// cross-checks the declared offsets against the recomputed ones.
PqFileHeader ComputeLayout(uint32_t dim, uint32_t m, uint32_t ksub,
                           uint64_t num_vectors) {
  PqFileHeader h;
  h.version = kPqFormatVersion;
  h.dim = dim;
  h.m = m;
  h.ksub = ksub;
  h.num_vectors = num_vectors;
  const uint64_t sub_dim = dim / m;
  h.codebooks_off = kFormatHeaderBytes;
  h.codes_off =
      AlignUp(h.codebooks_off + uint64_t{m} * ksub * sub_dim * sizeof(float));
  h.ids_off = AlignUp(h.codes_off + num_vectors * m);
  h.footer_off = AlignUp(h.ids_off + num_vectors * sizeof(uint32_t));
  return h;
}

Status CheckShape(size_t dim, size_t m, size_t ksub,
                  const std::string& path) {
  if (dim == 0) {
    return Status::InvalidArgument("pq file dim must be positive: " + path);
  }
  if (m == 0 || m > dim || dim % m != 0) {
    return Status::InvalidArgument(
        "pq file m must divide dim (dim " + std::to_string(dim) + ", m " +
        std::to_string(m) + "): " + path);
  }
  if (ksub == 0 || ksub > 256) {
    return Status::InvalidArgument("pq file ksub must be in [1, 256], got " +
                                   std::to_string(ksub) + ": " + path);
  }
  return Status::OK();
}

}  // namespace

Status WritePqFile(Env* env, const std::string& path, size_t dim, size_t m,
                   size_t ksub, std::span<const float> codebooks,
                   std::span<const uint8_t> codes,
                   std::span<const uint32_t> ids) {
  QVT_RETURN_IF_ERROR(CheckShape(dim, m, ksub, path));
  if (ids.empty()) {
    return Status::InvalidArgument("refusing to write zero-vector pq file: " +
                                   path);
  }
  const size_t sub_dim = dim / m;
  if (codebooks.size() != m * ksub * sub_dim) {
    return Status::InvalidArgument("pq codebook array has wrong size: " +
                                   path);
  }
  if (codes.size() != ids.size() * m) {
    return Status::InvalidArgument("pq code array has wrong size: " + path);
  }

  const PqFileHeader h =
      ComputeLayout(static_cast<uint32_t>(dim), static_cast<uint32_t>(m),
                    static_cast<uint32_t>(ksub), ids.size());
  auto writer = FormatWriter::Create(env, path, kPqMagic);
  if (!writer.ok()) return writer.status();

  uint8_t header[kFormatHeaderBytes] = {};
  std::memcpy(header + 0, &kPqMagic, 8);
  std::memcpy(header + 8, &h.version, 4);
  std::memcpy(header + 12, &h.dim, 4);
  std::memcpy(header + 16, &h.m, 4);
  std::memcpy(header + 20, &h.ksub, 4);
  std::memcpy(header + 24, &h.num_vectors, 8);
  std::memcpy(header + 32, &h.codebooks_off, 8);
  std::memcpy(header + 40, &h.codes_off, 8);
  std::memcpy(header + 48, &h.ids_off, 8);
  std::memcpy(header + 56, &h.footer_off, 8);
  QVT_RETURN_IF_ERROR(writer->Append(header, sizeof(header)));

  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  QVT_RETURN_IF_ERROR(
      writer->Append(codebooks.data(), codebooks.size() * sizeof(float)));
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  QVT_RETURN_IF_ERROR(writer->Append(codes.data(), codes.size()));
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  QVT_RETURN_IF_ERROR(
      writer->Append(ids.data(), ids.size() * sizeof(uint32_t)));
  // The footer section of the shared envelope is 64-aligned, so pad the id
  // column out to the computed footer offset.
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  QVT_CHECK(writer->offset() == h.footer_off);  // layout math matches writes
  return writer->Finish();
}

StatusOr<PqFileView> PqFileView::Open(std::unique_ptr<MemoryMappedFile> file,
                                      std::string path, size_t expected_dim) {
  PqFileView view(std::move(file), std::move(path));
  const FormatView fv(view.file_->bytes(), view.path_);
  QVT_RETURN_IF_ERROR(fv.CheckEnvelope(kPqMagic, kPqFormatVersion));

  const uint8_t* h = fv.data();
  PqFileHeader& header = view.header_;
  header.version = LoadU32(h + 8);
  header.dim = LoadU32(h + 12);
  header.m = LoadU32(h + 16);
  header.ksub = LoadU32(h + 20);
  header.num_vectors = LoadU64(h + 24);
  header.codebooks_off = LoadU64(h + 32);
  header.codes_off = LoadU64(h + 40);
  header.ids_off = LoadU64(h + 48);
  header.footer_off = LoadU64(h + 56);

  if (header.dim == 0 || (expected_dim != 0 && header.dim != expected_dim)) {
    return fv.CorruptionAt(12, "pq dim " + std::to_string(header.dim) +
                                   " (expected " +
                                   std::to_string(expected_dim) + ")");
  }
  if (header.m == 0 || header.m > header.dim ||
      header.dim % header.m != 0) {
    return fv.CorruptionAt(16, "pq m " + std::to_string(header.m) +
                                   " does not divide dim " +
                                   std::to_string(header.dim));
  }
  if (header.ksub == 0 || header.ksub > 256) {
    return fv.CorruptionAt(20,
                           "pq ksub " + std::to_string(header.ksub) +
                               " outside [1, 256]");
  }
  if (header.num_vectors == 0) {
    return fv.CorruptionAt(24, "zero-vector pq file");
  }
  if (header.footer_off != fv.size() - kFormatFooterBytes) {
    return fv.CorruptionAt(56, "declared footer offset " +
                                   std::to_string(header.footer_off) +
                                   " does not match file size " +
                                   std::to_string(fv.size()));
  }
  const PqFileHeader expect = ComputeLayout(header.dim, header.m,
                                            header.ksub, header.num_vectors);
  if (header.codebooks_off != expect.codebooks_off ||
      header.codes_off != expect.codes_off ||
      header.ids_off != expect.ids_off ||
      header.footer_off != expect.footer_off) {
    return fv.CorruptionAt(32, "section offsets disagree with layout");
  }

  const uint64_t sub_dim = header.dim / header.m;
  auto codebooks = fv.Section(header.codebooks_off,
                              uint64_t{header.m} * header.ksub,
                              sub_dim * sizeof(float), "pq codebooks");
  if (!codebooks.ok()) return codebooks.status();
  auto codes = fv.Section(header.codes_off, header.num_vectors, header.m,
                          "pq codes");
  if (!codes.ok()) return codes.status();
  auto ids = fv.Section(header.ids_off, header.num_vectors, sizeof(uint32_t),
                        "pq ids");
  if (!ids.ok()) return ids.status();

  // Section offsets are 64-aligned within the file and the mapping base is
  // at least 64-aligned (page-aligned mmap or Env's aligned heap copy), so
  // these casts land on correctly aligned addresses for each element type.
  view.codebooks_ = reinterpret_cast<const float*>(*codebooks);
  view.codes_ = *codes;
  view.ids_ = reinterpret_cast<const uint32_t*>(*ids);
  QVT_RETURN_IF_ERROR(view.ValidateEntries());
  return view;
}

Status PqFileView::VerifyCrc() const {
  return FormatView(file_->bytes(), path_).VerifyCrc();
}

Status PqFileView::ValidateEntries() const {
  const FormatView fv(file_->bytes(), path_);
  const std::span<const float> cb = codebooks();
  for (size_t j = 0; j < cb.size(); ++j) {
    if (!std::isfinite(cb[j])) {
      return fv.CorruptionAt(header_.codebooks_off + j * sizeof(float),
                             "non-finite codebook entry " +
                                 std::to_string(j));
    }
  }
  const std::span<const uint8_t> code_rows = codes();
  for (size_t j = 0; j < code_rows.size(); ++j) {
    if (code_rows[j] >= header_.ksub) {
      return fv.CorruptionAt(header_.codes_off + j,
                             "code " + std::to_string(code_rows[j]) +
                                 " out of range for ksub " +
                                 std::to_string(header_.ksub) + " at entry " +
                                 std::to_string(j));
    }
  }
  return Status::OK();
}

StatusOr<PqFileView> OpenPqFile(Env* env, const std::string& path,
                                size_t dim) {
  auto file = env->NewMemoryMappedFile(path);
  if (!file.ok()) return file.status();
  return PqFileView::Open(std::move(file).value(), path, dim);
}

}  // namespace qvt

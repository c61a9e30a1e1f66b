#include "storage/index_file.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace qvt {

namespace {

/// Section offsets follow deterministically from (dim, num_chunks), so the
/// writer computes the header up front and the reader can cross-check the
/// declared offsets against the recomputed ones.
IndexFileHeader ComputeLayout(uint32_t dim, uint64_t num_chunks) {
  IndexFileHeader h;
  h.version = kIndexFormatVersion;
  h.dim = dim;
  h.num_chunks = num_chunks;
  h.centroids_off = kFormatHeaderBytes;
  h.radii_off = AlignUp(h.centroids_off + num_chunks * dim * sizeof(float));
  h.directory_off = AlignUp(h.radii_off + num_chunks * sizeof(double));
  h.rects_off = AlignUp(h.directory_off + num_chunks * sizeof(ChunkLocation));
  h.footer_off = h.rects_off + num_chunks * 2 * dim * sizeof(float);
  return h;
}

}  // namespace

Status WriteIndexFile(Env* env, const std::string& path, size_t dim,
                      const std::vector<ChunkIndexEntry>& entries) {
  if (entries.empty()) {
    return Status::InvalidArgument("refusing to write zero-entry index: " +
                                   path);
  }
  if (dim == 0) {
    return Status::InvalidArgument("index dim must be positive: " + path);
  }
  for (const ChunkIndexEntry& entry : entries) {
    if (entry.bounds.dim() != dim) {
      return Status::InvalidArgument("index entry centroid has wrong dim");
    }
    if (entry.rect_lo.size() != dim || entry.rect_hi.size() != dim) {
      return Status::InvalidArgument("index entry rectangle has wrong dim");
    }
  }

  const IndexFileHeader h =
      ComputeLayout(static_cast<uint32_t>(dim), entries.size());
  auto writer = FormatWriter::Create(env, path, kIndexMagic);
  if (!writer.ok()) return writer.status();

  uint8_t header[kFormatHeaderBytes] = {};
  std::memcpy(header + 0, &kIndexMagic, 8);
  std::memcpy(header + 8, &h.version, 4);
  std::memcpy(header + 12, &h.dim, 4);
  std::memcpy(header + 16, &h.num_chunks, 8);
  std::memcpy(header + 24, &h.centroids_off, 8);
  std::memcpy(header + 32, &h.radii_off, 8);
  std::memcpy(header + 40, &h.directory_off, 8);
  std::memcpy(header + 48, &h.footer_off, 8);
  std::memcpy(header + 56, &h.rects_off, 8);
  QVT_RETURN_IF_ERROR(writer->Append(header, sizeof(header)));

  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  for (const ChunkIndexEntry& entry : entries) {
    QVT_RETURN_IF_ERROR(writer->Append(entry.bounds.center.data(),
                                       dim * sizeof(float)));
  }
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  for (const ChunkIndexEntry& entry : entries) {
    QVT_RETURN_IF_ERROR(writer->Append(&entry.bounds.radius, sizeof(double)));
  }
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  for (const ChunkIndexEntry& entry : entries) {
    QVT_RETURN_IF_ERROR(writer->Append(&entry.location,
                                       sizeof(ChunkLocation)));
  }
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  for (const ChunkIndexEntry& entry : entries) {
    QVT_RETURN_IF_ERROR(writer->Append(entry.rect_lo.data(),
                                       dim * sizeof(float)));
    QVT_RETURN_IF_ERROR(writer->Append(entry.rect_hi.data(),
                                       dim * sizeof(float)));
  }
  QVT_CHECK(writer->offset() == h.footer_off);  // layout math matches writes
  return writer->Finish();
}

StatusOr<IndexFileView> IndexFileView::Open(
    std::unique_ptr<MemoryMappedFile> file, std::string path,
    size_t expected_dim) {
  IndexFileView view(std::move(file), std::move(path));
  const FormatView fv(view.file_->bytes(), view.path_);
  QVT_RETURN_IF_ERROR(fv.CheckEnvelope(kIndexMagic, kIndexFormatVersion));

  const uint8_t* h = fv.data();
  IndexFileHeader& header = view.header_;
  header.version = LoadU32(h + 8);
  header.dim = LoadU32(h + 12);
  header.num_chunks = LoadU64(h + 16);
  header.centroids_off = LoadU64(h + 24);
  header.radii_off = LoadU64(h + 32);
  header.directory_off = LoadU64(h + 40);
  header.footer_off = LoadU64(h + 48);
  header.rects_off = LoadU64(h + 56);

  if (header.dim == 0 ||
      (expected_dim != 0 && header.dim != expected_dim)) {
    return fv.CorruptionAt(12, "index dim " + std::to_string(header.dim) +
                                   " (expected " +
                                   std::to_string(expected_dim) + ")");
  }
  if (header.num_chunks == 0) {
    return fv.CorruptionAt(16, "zero-entry index");
  }
  if (header.footer_off != fv.size() - kFormatFooterBytes) {
    return fv.CorruptionAt(48, "declared footer offset " +
                                   std::to_string(header.footer_off) +
                                   " does not match file size " +
                                   std::to_string(fv.size()));
  }
  const IndexFileHeader expect = ComputeLayout(header.dim, header.num_chunks);
  if (header.centroids_off != expect.centroids_off ||
      header.radii_off != expect.radii_off ||
      header.directory_off != expect.directory_off ||
      header.rects_off != expect.rects_off ||
      header.footer_off != expect.footer_off) {
    return fv.CorruptionAt(24, "section offsets disagree with layout");
  }

  auto centroids =
      fv.Section(header.centroids_off, header.num_chunks,
                 header.dim * sizeof(float), "centroid matrix");
  if (!centroids.ok()) return centroids.status();
  auto radii = fv.Section(header.radii_off, header.num_chunks,
                          sizeof(double), "radii");
  if (!radii.ok()) return radii.status();
  auto directory = fv.Section(header.directory_off, header.num_chunks,
                              sizeof(ChunkLocation), "chunk directory");
  if (!directory.ok()) return directory.status();
  auto rects = fv.Section(header.rects_off, header.num_chunks,
                          2 * header.dim * sizeof(float), "rectangles");
  if (!rects.ok()) return rects.status();

  // Section offsets are 64-aligned within the file and the mapping base is
  // at least 64-aligned (page-aligned mmap or Env's aligned heap copy), so
  // these casts land on correctly aligned addresses for each element type.
  view.centroids_ = reinterpret_cast<const float*>(*centroids);
  view.radii_ = reinterpret_cast<const double*>(*radii);
  view.locations_ = reinterpret_cast<const ChunkLocation*>(*directory);
  view.rects_ = reinterpret_cast<const float*>(*rects);
  QVT_RETURN_IF_ERROR(view.ValidateEntries());
  return view;
}

Status IndexFileView::VerifyCrc() const {
  return FormatView(file_->bytes(), path_).VerifyCrc();
}

Status IndexFileView::ValidateEntries() const {
  const FormatView fv(file_->bytes(), path_);
  for (uint64_t i = 0; i < header_.num_chunks; ++i) {
    if (!(radii_[i] >= 0.0) || !std::isfinite(radii_[i])) {
      return fv.CorruptionAt(header_.radii_off + i * sizeof(double),
                             "invalid radius in entry " + std::to_string(i));
    }
    if (locations_[i].num_pages == 0 || locations_[i].num_descriptors == 0) {
      return fv.CorruptionAt(
          header_.directory_off + i * sizeof(ChunkLocation),
          "empty extent in entry " + std::to_string(i));
    }
    const std::span<const float> lo = rect_lo(i);
    const std::span<const float> hi = rect_hi(i);
    for (size_t d = 0; d < header_.dim; ++d) {
      if (!std::isfinite(lo[d]) || !std::isfinite(hi[d]) || lo[d] > hi[d]) {
        return fv.CorruptionAt(
            header_.rects_off + (2 * i * header_.dim + d) * sizeof(float),
            "invalid rectangle in entry " + std::to_string(i) +
                " (dimension " + std::to_string(d) + ")");
      }
    }
  }
  return Status::OK();
}

StatusOr<IndexFileView> OpenIndexFile(Env* env, const std::string& path,
                                      size_t dim) {
  auto file = env->NewMemoryMappedFile(path);
  if (!file.ok()) return file.status();
  return IndexFileView::Open(std::move(file).value(), path, dim);
}

}  // namespace qvt

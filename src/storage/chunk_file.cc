#include "storage/chunk_file.h"

#include <cstring>

#include "util/logging.h"

namespace qvt {

StatusOr<std::unique_ptr<ChunkFileWriter>> ChunkFileWriter::Create(
    Env* env, const std::string& path, size_t dim) {
  auto file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<ChunkFileWriter>(
      new ChunkFileWriter(std::move(file).value(), dim));
}

StatusOr<ChunkLocation> ChunkFileWriter::AppendChunk(
    const Collection& collection, std::span<const size_t> positions) {
  if (positions.empty()) {
    return Status::InvalidArgument("cannot write an empty chunk");
  }
  QVT_CHECK(collection.dim() == dim_);
  std::vector<DescriptorId> ids;
  std::vector<float> values;
  ids.reserve(positions.size());
  values.reserve(positions.size() * dim_);
  for (size_t pos : positions) {
    QVT_CHECK(pos < collection.size());
    ids.push_back(collection.Id(pos));
    const auto v = collection.Vector(pos);
    values.insert(values.end(), v.begin(), v.end());
  }
  return AppendRecords(ids, values.data());
}

StatusOr<ChunkLocation> ChunkFileWriter::AppendChunk(const ChunkData& chunk) {
  if (chunk.size() == 0) {
    return Status::InvalidArgument("cannot write an empty chunk");
  }
  QVT_CHECK(chunk.dim == dim_);
  return AppendRecords(chunk.ids, chunk.values.data());
}

StatusOr<ChunkLocation> ChunkFileWriter::AppendRecords(
    std::span<const DescriptorId> ids, const float* values) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("chunk file already closed");
  }
  const size_t record_bytes = DescriptorRecordBytes(dim_);
  const uint64_t payload = ids.size() * record_bytes;
  const uint64_t pages = PagesForBytes(payload);

  std::vector<uint8_t> buffer(pages * kPageSize, 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    uint8_t* record = buffer.data() + i * record_bytes;
    std::memcpy(record, &ids[i], sizeof(DescriptorId));
    std::memcpy(record + sizeof(DescriptorId), values + i * dim_,
                dim_ * sizeof(float));
  }
  QVT_RETURN_IF_ERROR(file_->Append(buffer.data(), buffer.size()));

  ChunkLocation location;
  location.first_page = next_page_;
  location.num_pages = static_cast<uint32_t>(pages);
  location.num_descriptors = static_cast<uint32_t>(ids.size());
  next_page_ += pages;
  return location;
}

Status ChunkFileWriter::Close() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("chunk file already closed");
  }
  Status s = file_->Close();
  file_.reset();
  return s;
}

StatusOr<std::unique_ptr<ChunkFileReader>> ChunkFileReader::Open(
    Env* env, const std::string& path, size_t dim) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  if ((*file)->Size() % kPageSize != 0) {
    return Status::Corruption(
        "chunk file is not page aligned: " + path + " (size " +
        std::to_string((*file)->Size()) + ")");
  }
  return std::unique_ptr<ChunkFileReader>(
      new ChunkFileReader(std::move(file).value(), path, dim));
}

Status ChunkFileReader::ReadChunk(const ChunkLocation& location,
                                  ChunkData* out) const {
  const size_t record_bytes = DescriptorRecordBytes(dim_);
  const uint64_t offset = location.first_page * kPageSize;
  const uint64_t bytes =
      static_cast<uint64_t>(location.num_pages) * kPageSize;
  const uint64_t payload =
      static_cast<uint64_t>(location.num_descriptors) * record_bytes;
  if (payload > bytes) {
    return Status::Corruption("chunk payload exceeds extent in " + path_ +
                              " at offset " + std::to_string(offset));
  }
  // Page-denominated compare so a hostile first_page cannot overflow the
  // byte math above.
  if (location.first_page > file_pages() ||
      location.num_pages > file_pages() - location.first_page) {
    return Status::Corruption("chunk extent past end of " + path_ +
                              " (first_page " +
                              std::to_string(location.first_page) + ")");
  }
  // Per-thread so concurrent readers never share the decode buffer, while
  // serial search loops still reuse one allocation across chunks. Only the
  // records are read: the extent's zero padding past them is never decoded.
  static thread_local std::vector<uint8_t> scratch;
  scratch.resize(payload);
  if (payload > 0) {
    QVT_RETURN_IF_ERROR(file_->Read(offset, payload, scratch.data()));
  }

  out->dim = dim_;
  out->ids.resize(location.num_descriptors);
  out->values.resize(static_cast<size_t>(location.num_descriptors) * dim_);
  for (uint32_t i = 0; i < location.num_descriptors; ++i) {
    const uint8_t* record = scratch.data() + i * record_bytes;
    std::memcpy(&out->ids[i], record, sizeof(DescriptorId));
    std::memcpy(out->values.data() + static_cast<size_t>(i) * dim_,
                record + sizeof(DescriptorId), dim_ * sizeof(float));
  }
  return Status::OK();
}

}  // namespace qvt

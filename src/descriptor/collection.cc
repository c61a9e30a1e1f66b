#include "descriptor/collection.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace qvt {

Collection::Collection(size_t dim) : dim_(dim) {
  QVT_CHECK(dim > 0) << "descriptor dimension must be positive";
}

void Collection::Append(DescriptorId id, std::span<const float> values,
                        ImageId image_id) {
  QVT_CHECK(values.size() == dim_)
      << "expected " << dim_ << "-d vector, got " << values.size();
  data_.insert(data_.end(), values.begin(), values.end());
  ids_.push_back(id);
  image_ids_.push_back(image_id);
}

Collection Collection::Subset(std::span<const size_t> positions) const {
  Collection out(dim_);
  out.Reserve(positions.size());
  for (size_t pos : positions) {
    QVT_CHECK(pos < size());
    out.Append(ids_[pos], Vector(pos), image_ids_[pos]);
  }
  return out;
}

void Collection::Reserve(size_t n) {
  data_.reserve(n * dim_);
  ids_.reserve(n);
  image_ids_.reserve(n);
}

Status Collection::Save(Env* env, const std::string& path) const {
  auto file = env->NewWritableFile(path);
  if (!file.ok()) return file.status();

  const size_t record_bytes = DescriptorRecordBytes(dim_);
  std::vector<uint8_t> record(record_bytes);
  for (size_t pos = 0; pos < size(); ++pos) {
    std::memcpy(record.data(), &ids_[pos], sizeof(DescriptorId));
    std::memcpy(record.data() + sizeof(DescriptorId),
                data_.data() + pos * dim_, dim_ * sizeof(float));
    QVT_RETURN_IF_ERROR((*file)->Append(record.data(), record.size()));
  }
  QVT_RETURN_IF_ERROR((*file)->Close());

  auto img_file = env->NewWritableFile(path + ".img");
  if (!img_file.ok()) return img_file.status();
  if (!image_ids_.empty()) {
    QVT_RETURN_IF_ERROR((*img_file)->Append(
        image_ids_.data(), image_ids_.size() * sizeof(ImageId)));
  }
  return (*img_file)->Close();
}

StatusOr<Collection> Collection::Load(Env* env, const std::string& path,
                                      size_t dim) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();

  const size_t record_bytes = DescriptorRecordBytes(dim);
  const uint64_t file_size = (*file)->Size();
  if (file_size % record_bytes != 0) {
    return Status::Corruption("descriptor file size " +
                              std::to_string(file_size) +
                              " is not a multiple of the record size " +
                              std::to_string(record_bytes));
  }
  const size_t n = file_size / record_bytes;

  Collection out(dim);
  out.Reserve(n);

  std::vector<uint8_t> buffer(file_size);
  if (file_size > 0) {
    QVT_RETURN_IF_ERROR((*file)->Read(0, file_size, buffer.data()));
  }
  std::vector<float> values(dim);
  for (size_t pos = 0; pos < n; ++pos) {
    const uint8_t* record = buffer.data() + pos * record_bytes;
    DescriptorId id;
    std::memcpy(&id, record, sizeof(DescriptorId));
    std::memcpy(values.data(), record + sizeof(DescriptorId),
                dim * sizeof(float));
    for (size_t d = 0; d < dim; ++d) {
      if (!std::isfinite(values[d])) {
        return Status::Corruption(
            "non-finite value in coordinate " + std::to_string(d) +
            " of record " + std::to_string(pos) + " (id " +
            std::to_string(id) + ") in " + path);
      }
    }
    out.Append(id, values);
  }

  // Image ids are optional (older files / external datasets).
  if (env->FileExists(path + ".img")) {
    auto img = ReadFileBytes(env, path + ".img");
    if (!img.ok()) return img.status();
    if (!img->empty() && img->size() == n * sizeof(ImageId)) {
      std::memcpy(out.image_ids_.data(), img->data(), img->size());
    } else if (!img->empty()) {
      return Status::Corruption("image-id sidecar has wrong size");
    }
  }
  return out;
}

}  // namespace qvt

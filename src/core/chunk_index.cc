#include "core/chunk_index.h"

#include <algorithm>
#include <cmath>

#include "geometry/kernels.h"
#include "geometry/sphere.h"
#include "geometry/vec.h"
#include "util/build_stats.h"
#include "util/logging.h"

namespace qvt {

ChunkIndexPaths ChunkIndexPaths::ForBase(const std::string& base_path) {
  return ChunkIndexPaths{base_path + ".chunks", base_path + ".index"};
}

StatusOr<ChunkIndex> ChunkIndex::Build(const Collection& collection,
                                       const ChunkingResult& chunking,
                                       Env* env,
                                       const ChunkIndexPaths& paths) {
  if (chunking.chunks.empty()) {
    return Status::InvalidArgument("chunking produced no chunks");
  }
  const size_t dim = collection.dim();

  auto writer = ChunkFileWriter::Create(env, paths.chunk_file, dim);
  if (!writer.ok()) return writer.status();

  std::vector<ChunkIndexEntry> entries;
  entries.reserve(chunking.chunks.size());

  std::vector<std::span<const float>> points;
  for (const auto& chunk : chunking.chunks) {
    if (chunk.empty()) {
      return Status::InvalidArgument("chunking contains an empty chunk");
    }
    // Centroid + exact minimum bounding radius (§4.2).
    points.clear();
    points.reserve(chunk.size());
    for (size_t pos : chunk) points.push_back(collection.Vector(pos));

    ChunkIndexEntry entry;
    entry.bounds = CentroidBoundingSphere(points, dim);
    entry.rect_lo.assign(points.front().begin(), points.front().end());
    entry.rect_hi = entry.rect_lo;
    for (const auto& p : points) {
      for (size_t d = 0; d < dim; ++d) {
        entry.rect_lo[d] = std::min(entry.rect_lo[d], p[d]);
        entry.rect_hi[d] = std::max(entry.rect_hi[d], p[d]);
      }
    }
    auto location = (*writer)->AppendChunk(collection, chunk);
    if (!location.ok()) return location.status();
    entry.location = *location;
    entries.push_back(std::move(entry));
  }
  QVT_RETURN_IF_ERROR((*writer)->Close());
  QVT_RETURN_IF_ERROR(WriteIndexFile(env, paths.index_file, dim, entries));

  // Re-open from the published files rather than trusting in-memory state:
  // the build result and a later open are the same bytes by construction.
  return Open(env, paths, dim);
}

StatusOr<ChunkIndex> ChunkIndex::Open(Env* env, const ChunkIndexPaths& paths,
                                      size_t dim, IndexOpenMode) {
  BuildPhaseTimer timer("index.open");
  auto view = OpenIndexFile(env, paths.index_file, dim);
  if (!view.ok()) return view.status();
  auto reader = ChunkFileReader::Open(env, paths.chunk_file, dim);
  if (!reader.ok()) return reader.status();
  return ChunkIndex(std::move(view).value(), std::move(reader).value());
}

uint64_t ChunkIndex::total_descriptors() const {
  uint64_t total = 0;
  for (const ChunkLocation& loc : locations()) total += loc.num_descriptors;
  return total;
}

uint32_t ChunkIndex::max_chunk_descriptors() const {
  uint32_t max = 0;
  for (const ChunkLocation& loc : locations()) {
    max = std::max(max, loc.num_descriptors);
  }
  return max;
}

PopulationStats ChunkIndex::populations() const {
  std::vector<uint64_t> pops;
  pops.reserve(num_chunks());
  for (const ChunkLocation& loc : locations()) {
    pops.push_back(loc.num_descriptors);
  }
  return PopulationStats::FromPopulations(pops);
}

std::string ChunkIndex::Describe() const {
  return "chunk index: dim " + std::to_string(dim()) + ", " +
         populations().ToString();
}

Status ChunkIndex::ReadChunk(size_t i, ChunkData* out) const {
  if (i >= num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  return reader_->ReadChunk(location(i), out);
}

Status ChunkIndex::Validate(uint32_t max_population) const {
  QVT_RETURN_IF_ERROR(view_.VerifyCrc());
  ChunkData chunk;
  std::vector<double> distances;
  uint64_t expected_page = 0;
  for (size_t i = 0; i < num_chunks(); ++i) {
    const ChunkLocation& loc = location(i);
    if (loc.num_descriptors == 0) {
      return Status::Corruption("chunk " + std::to_string(i) +
                                " is empty (a zero-row chunk still costs a "
                                "probe and pages on every query that ranks "
                                "it)");
    }
    if (max_population > 0 && loc.num_descriptors > max_population) {
      return Status::Corruption(
          "chunk " + std::to_string(i) + " holds " +
          std::to_string(loc.num_descriptors) +
          " descriptors, exceeding the declared population bound of " +
          std::to_string(max_population));
    }
    if (loc.first_page != expected_page) {
      return Status::Corruption("chunk " + std::to_string(i) +
                                " is not stored sequentially");
    }
    expected_page += loc.num_pages;

    QVT_RETURN_IF_ERROR(ReadChunk(i, &chunk));
    if (chunk.size() != loc.num_descriptors) {
      return Status::Corruption("chunk " + std::to_string(i) +
                                " descriptor count mismatch");
    }
    // The radius is the sqrt of the largest vec::SquaredDistance from the
    // centroid, and the kernel computes the same sum bit for bit, so a row
    // is inside the sphere exactly, with no slack.
    distances.resize(chunk.size());
    kernels::BatchSquaredDistance(chunk.values.data(), chunk.size(),
                                  chunk.dim, centroid(i), distances.data());
    const std::span<const float> lo = rect_lo(i);
    const std::span<const float> hi = rect_hi(i);
    for (size_t row = 0; row < chunk.size(); ++row) {
      if (std::sqrt(distances[row]) > radius(i)) {
        return Status::Corruption("descriptor outside chunk sphere in chunk " +
                                  std::to_string(i));
      }
      const std::span<const float> v = chunk.Vector(row);
      for (size_t d = 0; d < chunk.dim; ++d) {
        if (v[d] < lo[d] || v[d] > hi[d]) {
          return Status::Corruption(
              "descriptor outside chunk rectangle in chunk " +
              std::to_string(i));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace qvt

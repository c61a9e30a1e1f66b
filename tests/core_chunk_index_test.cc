#include "core/chunk_index.h"

#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "descriptor/generator.h"
#include "geometry/vec.h"

namespace qvt {
namespace {

Collection TestCollection(size_t images = 30) {
  GeneratorConfig config;
  config.num_images = images;
  config.descriptors_per_image = 25;
  config.num_modes = 6;
  config.seed = 8;
  return GenerateCollection(config);
}

TEST(ChunkIndexTest, BuildAndValidate) {
  MemEnv env;
  const Collection c = TestCollection();
  SrTreeChunker chunker(100);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());

  auto index = ChunkIndex::Build(c, *chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_chunks(), chunking->chunks.size());
  EXPECT_EQ(index->total_descriptors(), c.size());
  EXPECT_TRUE(index->Validate().ok());
}

TEST(ChunkIndexTest, OpenMatchesBuild) {
  MemEnv env;
  const Collection c = TestCollection();
  RoundRobinChunker chunker(64);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase("idx");
  auto built = ChunkIndex::Build(c, *chunking, &env, paths);
  ASSERT_TRUE(built.ok());

  auto opened = ChunkIndex::Open(&env, paths);
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened->num_chunks(), built->num_chunks());
  for (size_t i = 0; i < opened->num_chunks(); ++i) {
    EXPECT_EQ(opened->location(i), built->location(i));
    EXPECT_DOUBLE_EQ(opened->radius(i), built->radius(i));
  }
  EXPECT_TRUE(opened->Validate().ok());
}

// The one open checks every entry, so a CRC-valid index whose entries lie
// (a negative radius, a zero-page extent) is refused before any search can
// trust it.
TEST(ChunkIndexTest, OpenRejectsInvalidEntriesBehindAValidCrc) {
  MemEnv env;
  const Collection c = TestCollection();
  SrTreeChunker chunker(80);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase("idx");
  auto built = ChunkIndex::Build(c, *chunking, &env, paths);
  ASSERT_TRUE(built.ok());
  ASSERT_GT(built->num_chunks(), 3u);
  const IndexFileHeader header = built->file_header();
  auto good = ReadFileBytes(&env, paths.index_file);
  ASSERT_TRUE(good.ok());

  const auto open_with = [&](uint64_t at, const void* value, size_t size) {
    std::vector<uint8_t> bytes = *good;
    std::memcpy(bytes.data() + at, value, size);
    const uint32_t crc = Crc32(bytes.data(), header.footer_off);
    std::memcpy(bytes.data() + header.footer_off, &crc, sizeof(crc));
    EXPECT_TRUE(
        WriteFileBytes(&env, paths.index_file, bytes.data(), bytes.size())
            .ok());
    return ChunkIndex::Open(&env, paths).status();
  };

  const double negative_radius = -1e30;
  const Status radius = open_with(header.radii_off + 3 * sizeof(double),
                                  &negative_radius, sizeof(double));
  EXPECT_TRUE(radius.IsCorruption()) << radius.ToString();
  EXPECT_NE(radius.ToString().find("invalid radius in entry 3"),
            std::string::npos);

  const uint64_t entry_2 = header.directory_off + 2 * sizeof(ChunkLocation);
  const uint32_t zero_pages = 0;
  const Status extent =
      open_with(entry_2 + offsetof(ChunkLocation, num_pages), &zero_pages,
                sizeof(zero_pages));
  EXPECT_TRUE(extent.IsCorruption()) << extent.ToString();
  EXPECT_NE(extent.ToString().find("empty extent in entry 2"),
            std::string::npos);
}

TEST(ChunkIndexTest, OutliersAreExcluded) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  chunking.chunks = {{0, 1, 2}, {3, 4}};
  for (size_t i = 5; i < c.size(); ++i) chunking.outliers.push_back(i);

  auto index = ChunkIndex::Build(c, chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->total_descriptors(), 5u);
  EXPECT_EQ(index->num_chunks(), 2u);
}

TEST(ChunkIndexTest, EntriesHaveExactMinimumBoundingRadius) {
  MemEnv env;
  const Collection c = TestCollection();
  SrTreeChunker chunker(50);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  auto index = ChunkIndex::Build(c, *chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());

  ChunkData chunk;
  for (size_t i = 0; i < index->num_chunks(); ++i) {
    ASSERT_TRUE(index->ReadChunk(i, &chunk).ok());
    double max_dist = 0;
    std::vector<float> lo(chunk.Vector(0).begin(), chunk.Vector(0).end());
    std::vector<float> hi = lo;
    for (size_t d = 0; d < chunk.size(); ++d) {
      max_dist =
          std::max(max_dist, vec::Distance(index->centroid(i),
                                           chunk.Vector(d)));
      for (size_t j = 0; j < chunk.dim; ++j) {
        lo[j] = std::min(lo[j], chunk.Vector(d)[j]);
        hi[j] = std::max(hi[j], chunk.Vector(d)[j]);
      }
    }
    // Radius is tight: it is the farthest member distance, bit for bit, and
    // the rectangle is the exact per-dimension min and max.
    EXPECT_EQ(index->radius(i), max_dist);
    const std::span<const float> rect_lo = index->rect_lo(i);
    const std::span<const float> rect_hi = index->rect_hi(i);
    EXPECT_EQ(std::vector<float>(rect_lo.begin(), rect_lo.end()), lo);
    EXPECT_EQ(std::vector<float>(rect_hi.begin(), rect_hi.end()), hi);
  }
}

// fsck holds every row to its sphere and rectangle exactly, with no slack:
// a radius one ulp too small, or a rectangle one ulp too narrow on either
// side, is a Corruption. The CRC is refreshed after each edit (and the
// edited entry stays valid for the open), so Validate's row check is what
// objects.
TEST(ChunkIndexTest, ValidateRejectsBoundsThatExcludeARow) {
  MemEnv env;
  const Collection c = TestCollection();
  SrTreeChunker chunker(80);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase("idx");
  auto built = ChunkIndex::Build(c, *chunking, &env, paths);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Validate().ok());
  ASSERT_GT(built->num_chunks(), 3u);
  const IndexFileHeader header = built->file_header();
  const size_t dim = built->dim();
  auto good = ReadFileBytes(&env, paths.index_file);
  ASSERT_TRUE(good.ok());

  const auto validate_with = [&](uint64_t at, const void* value, size_t size) {
    std::vector<uint8_t> bytes = *good;
    std::memcpy(bytes.data() + at, value, size);
    const uint32_t crc = Crc32(bytes.data(), header.footer_off);
    std::memcpy(bytes.data() + header.footer_off, &crc, sizeof(crc));
    EXPECT_TRUE(
        WriteFileBytes(&env, paths.index_file, bytes.data(), bytes.size())
            .ok());
    auto opened = ChunkIndex::Open(&env, paths);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? opened->Validate() : opened.status();
  };

  const double radius = std::nextafter(built->radius(2), 0.0);
  const Status sphere = validate_with(header.radii_off + 2 * sizeof(double),
                                      &radius, sizeof(radius));
  EXPECT_TRUE(sphere.IsCorruption()) << sphere.ToString();
  EXPECT_NE(sphere.ToString().find("outside chunk sphere in chunk 2"),
            std::string::npos);

  // Dimension 7 of chunk 1: raise lo, then lower hi, by one ulp.
  const size_t d = 7;
  const float lo = built->rect_lo(1)[d];
  const float hi = built->rect_hi(1)[d];
  ASSERT_LT(lo, hi);
  const uint64_t lo_at = header.rects_off + (2 * 1 * dim + d) * sizeof(float);
  const uint64_t hi_at = lo_at + dim * sizeof(float);
  const float raised = std::nextafter(lo, hi);
  const float lowered = std::nextafter(hi, lo);
  for (const auto& [at, value] : {std::pair{lo_at, raised},
                                  std::pair{hi_at, lowered}}) {
    const Status rect = validate_with(at, &value, sizeof(value));
    EXPECT_TRUE(rect.IsCorruption()) << rect.ToString();
    EXPECT_NE(rect.ToString().find("outside chunk rectangle in chunk 1"),
              std::string::npos);
  }
}

TEST(ChunkIndexTest, ReadChunkOutOfRange) {
  MemEnv env;
  const Collection c = TestCollection();
  RoundRobinChunker chunker(1000);
  auto chunking = chunker.FormChunks(c);
  ASSERT_TRUE(chunking.ok());
  auto index = ChunkIndex::Build(c, *chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());
  ChunkData chunk;
  EXPECT_TRUE(index->ReadChunk(index->num_chunks(), &chunk).IsOutOfRange());
}

TEST(ChunkIndexTest, EmptyChunkingRejected) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  EXPECT_TRUE(ChunkIndex::Build(c, chunking, &env,
                                ChunkIndexPaths::ForBase("idx"))
                  .status()
                  .IsInvalidArgument());
}

TEST(ChunkIndexTest, EmptyChunkInChunkingRejected) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  chunking.chunks = {{0, 1}, {}};
  for (size_t i = 2; i < c.size(); ++i) chunking.outliers.push_back(i);
  EXPECT_TRUE(ChunkIndex::Build(c, chunking, &env,
                                ChunkIndexPaths::ForBase("idx"))
                  .status()
                  .IsInvalidArgument());
}

TEST(ChunkIndexTest, PopulationsAndDescribe) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  chunking.chunks = {{0, 1, 2, 3}, {4, 5}, {6, 7}};
  for (size_t i = 8; i < c.size(); ++i) chunking.outliers.push_back(i);
  auto index = ChunkIndex::Build(c, chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());

  const PopulationStats pops = index->populations();
  EXPECT_EQ(pops.num_chunks, 3u);
  EXPECT_EQ(pops.total, 8u);
  EXPECT_EQ(pops.min, 2u);
  EXPECT_EQ(pops.max, 4u);
  EXPECT_NEAR(pops.mean, 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(pops.imbalance, 4.0 / (8.0 / 3.0), 1e-9);

  const std::string describe = index->Describe();
  EXPECT_NE(describe.find("3 chunks"), std::string::npos);
  EXPECT_NE(describe.find("imbalance"), std::string::npos);
}

TEST(ChunkIndexTest, ValidateRejectsPopulationAboveBound) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  chunking.chunks = {{0, 1, 2, 3}, {4, 5}};
  for (size_t i = 6; i < c.size(); ++i) chunking.outliers.push_back(i);
  auto index = ChunkIndex::Build(c, chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());

  EXPECT_TRUE(index->Validate().ok());
  EXPECT_TRUE(index->Validate(/*max_population=*/4).ok());
  const Status too_tight = index->Validate(/*max_population=*/3);
  EXPECT_TRUE(too_tight.IsCorruption()) << too_tight.ToString();
  EXPECT_NE(too_tight.ToString().find("population bound"), std::string::npos);
}

TEST(ChunkIndexTest, MaxChunkDescriptors) {
  MemEnv env;
  const Collection c = TestCollection();
  ChunkingResult chunking;
  chunking.chunks = {{0}, {1, 2, 3}, {4, 5}};
  for (size_t i = 6; i < c.size(); ++i) chunking.outliers.push_back(i);
  auto index = ChunkIndex::Build(c, chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->max_chunk_descriptors(), 3u);
}

TEST(ChunkIndexPathsTest, ForBaseAppendsSuffixes) {
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase("/tmp/foo");
  EXPECT_EQ(paths.chunk_file, "/tmp/foo.chunks");
  EXPECT_EQ(paths.index_file, "/tmp/foo.index");
}

}  // namespace
}  // namespace qvt

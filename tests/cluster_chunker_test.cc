#include "cluster/chunker.h"

#include <numeric>
#include <ostream>

#include <gtest/gtest.h>

#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "descriptor/generator.h"
#include "geometry/sphere.h"
#include "util/logging.h"

namespace qvt {
namespace {

Collection TestCollection(size_t images = 30) {
  GeneratorConfig config;
  config.num_images = images;
  config.descriptors_per_image = 30;
  config.num_modes = 6;
  config.seed = 3;
  return GenerateCollection(config);
}

/// Exactly `n` rows of a clustered collection, in generation order.
Collection ClusteredCollection(size_t n) {
  GeneratorConfig config;
  // Over-generate (per-image counts vary), then trim to exactly n.
  config.num_images = std::max<size_t>(8, n / 30 + 8);
  config.descriptors_per_image = 30;
  config.num_modes = std::max<size_t>(2, n / 300);
  config.seed = 1;
  Collection c = GenerateCollection(config);
  QVT_CHECK(c.size() >= n);
  std::vector<size_t> keep(n);
  std::iota(keep.begin(), keep.end(), 0);
  return c.Subset(keep);
}

TEST(ValidateChunkingTest, AcceptsProperPartition) {
  ChunkingResult result;
  result.chunks = {{0, 2}, {3}};
  result.outliers = {1};
  EXPECT_TRUE(ValidateChunking(result, 4).ok());
}

TEST(ValidateChunkingTest, RejectsDuplicates) {
  ChunkingResult result;
  result.chunks = {{0, 1}, {1}};
  EXPECT_TRUE(ValidateChunking(result, 2).IsCorruption());
}

TEST(ValidateChunkingTest, RejectsMissingPositions) {
  ChunkingResult result;
  result.chunks = {{0}};
  EXPECT_TRUE(ValidateChunking(result, 2).IsCorruption());
}

TEST(ValidateChunkingTest, RejectsOutOfRange) {
  ChunkingResult result;
  result.chunks = {{0, 5}};
  EXPECT_TRUE(ValidateChunking(result, 2).IsCorruption());
}

TEST(ValidateChunkingTest, RejectsEmptyChunks) {
  ChunkingResult result;
  result.chunks = {{0}, {}};
  result.outliers = {1};
  EXPECT_TRUE(ValidateChunking(result, 2).IsCorruption());
}

TEST(ChunkingResultTest, Accounting) {
  ChunkingResult result;
  result.chunks = {{0, 1, 2}, {3, 4}};
  result.outliers = {5};
  EXPECT_EQ(result.TotalChunkedDescriptors(), 5u);

  const PopulationStats stats = result.Populations();
  EXPECT_EQ(stats.num_chunks, 2u);
  EXPECT_EQ(stats.total, 5u);
  EXPECT_EQ(stats.min, 2u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.p50, 2.5);  // interpolated between the two sizes
  EXPECT_DOUBLE_EQ(stats.imbalance, 3.0 / 2.5);

  const PopulationStats empty = ChunkingResult{}.Populations();
  EXPECT_EQ(empty.num_chunks, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.imbalance, 0.0);
}

TEST(ChunkingResultTest, UniformChunksHaveUnitImbalance) {
  ChunkingResult result;
  result.chunks = {{0, 1}, {2, 3}, {4, 5}};
  const PopulationStats stats = result.Populations();
  EXPECT_DOUBLE_EQ(stats.imbalance, 1.0);
  EXPECT_EQ(stats.min, stats.max);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(RoundRobinChunkerTest, UniformSizesAndValidPartition) {
  const Collection c = TestCollection();
  RoundRobinChunker chunker(100);
  auto result = chunker.FormChunks(c);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ValidateChunking(*result, c.size()).ok());
  EXPECT_TRUE(result->outliers.empty());

  size_t min = SIZE_MAX, max = 0;
  for (const auto& chunk : result->chunks) {
    min = std::min(min, chunk.size());
    max = std::max(max, chunk.size());
  }
  EXPECT_LE(max - min, 1u);  // perfectly uniform up to remainder
  EXPECT_EQ(result->chunks.size(), (c.size() + 99) / 100);
}

TEST(RoundRobinChunkerTest, RejectsEmptyCollection) {
  Collection empty;
  RoundRobinChunker chunker(10);
  EXPECT_TRUE(chunker.FormChunks(empty).status().IsInvalidArgument());
}

TEST(SrTreeChunkerTest, ProducesValidUniformChunks) {
  const Collection c = TestCollection(60);
  SrTreeChunker chunker(120);
  auto result = chunker.FormChunks(c);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ValidateChunking(*result, c.size()).ok());
  EXPECT_TRUE(result->outliers.empty());
  EXPECT_EQ(chunker.name(), "SR");

  size_t min = SIZE_MAX, max = 0;
  for (const auto& chunk : result->chunks) {
    min = std::min(min, chunk.size());
    max = std::max(max, chunk.size());
  }
  EXPECT_LE(max, 120u);
  EXPECT_GE(min, 55u);  // > capacity/2
}

TEST(SrTreeChunkerTest, ChunksAreSpatiallyCoherent) {
  // SR chunks should have much lower intra-chunk spread than round-robin
  // chunks of the same size.
  const Collection c = TestCollection(60);
  SrTreeChunker sr(100);
  RoundRobinChunker rr(100);
  auto sr_result = sr.FormChunks(c);
  auto rr_result = rr.FormChunks(c);
  ASSERT_TRUE(sr_result.ok());
  ASSERT_TRUE(rr_result.ok());

  auto mean_radius = [&](const ChunkingResult& chunking) {
    double total = 0;
    for (const auto& chunk : chunking.chunks) {
      std::vector<std::span<const float>> points;
      for (size_t pos : chunk) points.push_back(c.Vector(pos));
      total += CentroidBoundingSphere(points, c.dim()).radius;
    }
    return total / static_cast<double>(chunking.chunks.size());
  };
  EXPECT_LT(mean_radius(*sr_result), 0.8 * mean_radius(*rr_result));
}

TEST(SrTreeChunkerTest, RejectsEmptyCollection) {
  Collection empty;
  SrTreeChunker chunker(10);
  EXPECT_TRUE(chunker.FormChunks(empty).status().IsInvalidArgument());
}

/// One static-build case: `rows` rows at leaf capacity `capacity` give
/// `chunks` chunks whose sizes lie in [min_size, max_size].
struct SrSizeCase {
  const char* name;
  size_t rows, capacity, chunks, min_size, max_size;
};

void PrintTo(const SrSizeCase& c, std::ostream* os) { *os << c.name; }

class SrTreeChunkerSizeTest : public ::testing::TestWithParam<SrSizeCase> {};

TEST_P(SrTreeChunkerSizeTest, UniformChunks) {
  const SrSizeCase& param = GetParam();
  const Collection c = ClusteredCollection(param.rows);
  SrTreeChunker chunker(param.capacity);
  auto result = chunker.FormChunks(c);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ValidateChunking(*result, c.size()).ok());
  EXPECT_TRUE(result->outliers.empty());
  const PopulationStats stats = result->Populations();
  EXPECT_EQ(stats.num_chunks, param.chunks);
  EXPECT_GE(stats.min, param.min_size);
  EXPECT_LE(stats.max, param.max_size);
  if (param.chunks == 1) {
    // A collection that fits one leaf is one chunk, in input order.
    std::vector<size_t> in_order(c.size());
    std::iota(in_order.begin(), in_order.end(), 0);
    EXPECT_EQ(result->chunks[0], in_order);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StaticBuild, SrTreeChunkerSizeTest,
    ::testing::Values(SrSizeCase{"Rows1000Cap64", 1000, 64, 16, 62, 63},
                      SrSizeCase{"Rows1200Cap100", 1200, 100, 12, 99, 101},
                      SrSizeCase{"Rows1050Cap100", 1050, 100, 11, 94, 97},
                      SrSizeCase{"Rows50Cap100", 50, 100, 1, 50, 50},
                      SrSizeCase{"Rows2000Cap50", 2000, 50, 40, 26, 50},
                      SrSizeCase{"Rows2000Cap200", 2000, 200, 10, 101, 200},
                      SrSizeCase{"Rows2000Cap800", 2000, 800, 3, 401, 800}));

/// FNV-1a over the chunk count, then each chunk's size and positions.
uint64_t HashChunkMembership(const ChunkingResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(result.chunks.size());
  for (const auto& chunk : result.chunks) {
    mix(chunk.size());
    for (size_t pos : chunk) mix(pos);
  }
  return h;
}

// Pins the partition itself (chunk order and the order of positions within
// each chunk) so a drift fails here, not only in a figure bench: every SR
// index file and every SR figure depends on it.
TEST(SrTreeChunkerTest, PartitionIsPinned) {
  const Collection c = TestCollection(60);
  const std::pair<size_t, uint64_t> golden[] = {
      {3, 0x5f145e03c84d9e8cULL},
      {70, 0xe8012b1a4fa372cdULL},
      {500, 0xbd0652182808d09cULL},
  };
  for (const auto& [capacity, hash] : golden) {
    SrTreeChunker chunker(capacity);
    auto result = chunker.FormChunks(c);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(HashChunkMembership(*result), hash) << "capacity " << capacity;
  }
}

}  // namespace
}  // namespace qvt

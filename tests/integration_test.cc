// End-to-end integration: the full pipeline of the paper on the real
// filesystem — generate, form chunks with every chunker, persist the
// two-file index, reopen it cold, search under every stop rule, and verify
// against a sequential scan. Exercises the same path as the bench harness
// but hermetically and at test scale.

#include <filesystem>

#include <gtest/gtest.h>

#include "cluster/bag.h"
#include "cluster/kmeans.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/image_search.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("qvt_integration_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);

    GeneratorConfig generator;
    generator.num_images = 80;
    generator.descriptors_per_image = 40;
    generator.num_modes = 12;
    generator.seed = 20260705;
    collection_ = new Collection(GenerateCollection(generator));
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete collection_;
    delete dir_;
  }

  static std::string Base(const std::string& name) {
    return (*dir_ / name).string();
  }

  static std::filesystem::path* dir_;
  static Collection* collection_;
};

std::filesystem::path* IntegrationTest::dir_ = nullptr;
Collection* IntegrationTest::collection_ = nullptr;

TEST_F(IntegrationTest, CollectionRoundTripsThroughDisk) {
  const std::string path = Base("col.desc");
  ASSERT_TRUE(collection_->Save(Env::Posix(), path).ok());
  auto loaded = Collection::Load(Env::Posix(), path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), collection_->size());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const size_t pos = rng.Uniform(collection_->size());
    EXPECT_EQ(loaded->Id(pos), collection_->Id(pos));
    EXPECT_EQ(loaded->Image(pos), collection_->Image(pos));
    for (size_t d = 0; d < collection_->dim(); ++d) {
      EXPECT_EQ(loaded->Vector(pos)[d], collection_->Vector(pos)[d]);
    }
  }
}

TEST_F(IntegrationTest, EveryChunkerProducesASearchableIndex) {
  SrTreeChunker sr(250);
  RoundRobinChunker rr(250);
  KMeansConfig km_config;
  km_config.num_clusters = 12;
  KMeansChunker km(km_config);
  BagChunker bag(24, BagConfig{});

  const std::pair<Chunker*, const char*> chunkers[] = {
      {&sr, "sr"}, {&rr, "rr"}, {&km, "km"}, {&bag, "bag"}};

  Rng rng(7);
  std::vector<float> query(collection_->dim());
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(30, 70));

  for (const auto& [chunker, tag] : chunkers) {
    auto chunking = chunker->FormChunks(*collection_);
    ASSERT_TRUE(chunking.ok()) << tag;
    ASSERT_TRUE(ValidateChunking(*chunking, collection_->size()).ok()) << tag;

    // Build on the real filesystem, then reopen cold.
    const ChunkIndexPaths paths = ChunkIndexPaths::ForBase(Base(tag));
    auto built = ChunkIndex::Build(*collection_, *chunking, Env::Posix(),
                                   paths);
    ASSERT_TRUE(built.ok()) << tag;
    auto index = ChunkIndex::Open(Env::Posix(), paths);
    ASSERT_TRUE(index.ok()) << tag;
    ASSERT_TRUE(index->Validate().ok()) << tag;

    // Exact search must match a sequential scan of the retained set.
    std::vector<size_t> retained_positions;
    for (const auto& chunk : chunking->chunks) {
      retained_positions.insert(retained_positions.end(), chunk.begin(),
                                chunk.end());
    }
    const Collection retained = collection_->Subset(retained_positions);
    const auto truth = ExactScan(retained, query, 10);

    Searcher searcher(&*index, DiskCostModel());
    auto exact = searcher.Search(query, 10, StopRule::Exact());
    ASSERT_TRUE(exact.ok()) << tag;
    EXPECT_TRUE(exact->telemetry.exact) << tag;
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(exact->neighbors[i].distance, truth[i].distance, 1e-6)
          << tag << " rank " << i;
    }

    // Approximate modes are well-formed and cheaper.
    auto budget = searcher.Search(query, 10, StopRule::MaxChunks(2));
    ASSERT_TRUE(budget.ok()) << tag;
    EXPECT_LE(budget->telemetry.chunks_read, 2u) << tag;
    EXPECT_LE(budget->telemetry.model_micros, exact->telemetry.model_micros)
        << tag;
  }
}

TEST_F(IntegrationTest, ImageSearchOnDiskIndex) {
  SrTreeChunker chunker(250);
  auto chunking = chunker.FormChunks(*collection_);
  ASSERT_TRUE(chunking.ok());
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase(Base("img"));
  auto index =
      ChunkIndex::Build(*collection_, *chunking, Env::Posix(), paths);
  ASSERT_TRUE(index.ok());
  Searcher searcher(&*index, DiskCostModel());

  std::vector<ImageId> image_of(collection_->size());
  for (size_t i = 0; i < collection_->size(); ++i) {
    image_of[collection_->Id(i)] = collection_->Image(i);
  }
  ImageSearcher image_search(&searcher, image_of);

  // Noisy copy of image 40.
  Rng rng(9);
  std::vector<float> pirate;
  for (size_t i = 0; i < collection_->size(); ++i) {
    if (collection_->Image(i) != 40) continue;
    for (float x : collection_->Vector(i)) {
      pirate.push_back(static_cast<float>(x + rng.Gaussian(0, 0.3)));
    }
  }
  auto matches = image_search.Search(pirate, collection_->dim(),
                                     ImageSearchOptions{});
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ(matches->front().image, 40u);
}

TEST_F(IntegrationTest, WorkloadPipelineMatchesPaperSemantics) {
  // DQ queries over a built index: run to conclusion and verify the
  // final precision is exactly 1 against ground truth of the same set.
  SrTreeChunker chunker(300);
  auto chunking = chunker.FormChunks(*collection_);
  ASSERT_TRUE(chunking.ok());
  auto index = ChunkIndex::Build(*collection_, *chunking, Env::Posix(),
                                 ChunkIndexPaths::ForBase(Base("wl")));
  ASSERT_TRUE(index.ok());

  Rng rng(17);
  const Workload dq = MakeDatasetQueries(*collection_, 15, &rng);
  const GroundTruth truth = GroundTruth::Compute(*collection_, dq, 10);
  Searcher searcher(&*index, DiskCostModel());
  for (size_t q = 0; q < dq.num_queries(); ++q) {
    auto result = searcher.Search(dq.Query(q), 10, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(
        PrecisionAtK(result->neighbors, truth.TruthFor(q), 10), 1.0);
  }
}

}  // namespace
}  // namespace qvt

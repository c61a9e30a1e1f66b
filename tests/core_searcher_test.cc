#include "core/searcher.h"

#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/exact_scan.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "geometry/vec.h"
#include "search_reference.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

Collection TestCollection(uint64_t seed = 21) {
  GeneratorConfig config;
  config.num_images = 40;
  config.descriptors_per_image = 25;
  config.num_modes = 8;
  config.seed = seed;
  return GenerateCollection(config);
}

struct IndexFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  explicit IndexFixture(Chunker* chunker, uint64_t seed = 21)
      : collection(TestCollection(seed)) {
    auto chunking = chunker->FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }
};

TEST(SearcherTest, ExactSearchMatchesSequentialScan) {
  SrTreeChunker chunker(80);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));

    auto result = searcher.Search(query, 10, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->telemetry.exact);
    const auto truth = ExactScan(fx.collection, query, 10);
    ASSERT_EQ(result->neighbors.size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(result->neighbors[i].distance, truth[i].distance, 1e-6);
    }
  }
}

TEST(SearcherTest, ExactStopReadsFewerChunksThanAll) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  // A dataset query sits inside a chunk; the exact search should prune.
  const auto query = fx.collection.Vector(100);
  auto result = searcher.Search(query, 5, StopRule::Exact());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->telemetry.exact);
  EXPECT_LT(result->telemetry.chunks_read, fx.index->num_chunks());
  EXPECT_GT(result->telemetry.chunks_read, 0u);
  // The query itself is its own nearest neighbor.
  EXPECT_DOUBLE_EQ(result->neighbors[0].distance, 0.0);
}

TEST(SearcherTest, MaxChunksStopRespected) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  const auto query = fx.collection.Vector(0);
  for (size_t budget : {1u, 3u, 7u}) {
    auto result = searcher.Search(query, 30, StopRule::MaxChunks(budget));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->telemetry.chunks_read, std::min<size_t>(budget,
                                                    fx.index->num_chunks()));
    EXPECT_FALSE(result->telemetry.exact);
  }
}

TEST(SearcherTest, ZeroChunkBudgetReturnsEmpty) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  auto result =
      searcher.Search(fx.collection.Vector(0), 5, StopRule::MaxChunks(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.chunks_read, 0u);
  EXPECT_TRUE(result->neighbors.empty());
}

TEST(SearcherTest, TimeBudgetStopsEarly) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  const auto query = fx.collection.Vector(50);
  // Zero budget: the model time after index scan alone exceeds it.
  auto tiny = searcher.Search(query, 30, StopRule::TimeBudget(0));
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->telemetry.chunks_read, 0u);

  // Generous budget: search reads chunks.
  auto roomy = searcher.Search(query, 30,
                               StopRule::TimeBudget(60LL * 1000 * 1000));
  ASSERT_TRUE(roomy.ok());
  EXPECT_GT(roomy->telemetry.chunks_read, 0u);
}

TEST(SearcherTest, TimeBudgetIsMonotoneInChunksRead) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(7);

  size_t last_chunks = 0;
  for (int64_t budget_ms : {20, 60, 200, 2000}) {
    auto result =
        searcher.Search(query, 30, StopRule::TimeBudget(budget_ms * 1000));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->telemetry.chunks_read, last_chunks);
    last_chunks = result->telemetry.chunks_read;
  }
}

TEST(SearcherTest, ObserverSeesMonotoneProgress) {
  RoundRobinChunker chunker(50);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  size_t calls = 0;
  int64_t last_model = 0;
  uint64_t last_descriptors = 0;
  const SearchObserver observer = [&](const SearchProgress& progress) {
    ++calls;
    EXPECT_EQ(progress.chunks_read, calls);
    EXPECT_GT(progress.model_elapsed_micros, last_model);
    EXPECT_GT(progress.descriptors_processed, last_descriptors);
    EXPECT_NE(progress.result, nullptr);
    last_model = progress.model_elapsed_micros;
    last_descriptors = progress.descriptors_processed;
  };
  auto result = searcher.Search(fx.collection.Vector(3), 10,
                                StopRule::Exact(), observer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, result->telemetry.chunks_read);
}

TEST(SearcherTest, ModelTimeIncludesIndexScan) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  DiskCostModel model;
  Searcher searcher(&*fx.index, model);
  auto result =
      searcher.Search(fx.collection.Vector(0), 5, StopRule::MaxChunks(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.model_micros,
            model.IndexScanMicros(fx.index->num_chunks()));
}

TEST(SearcherTest, InvalidArgumentsRejected) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  EXPECT_TRUE(searcher.Search(fx.collection.Vector(0), 0, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  std::vector<float> wrong_dim(7, 0.0f);
  EXPECT_TRUE(searcher.Search(wrong_dim, 5, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  // NaN and infinite coordinates would make every distance NaN/inf; the
  // searcher must refuse them rather than claim an (exact) answer.
  const auto base = fx.collection.Vector(5);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> query(base.begin(), base.end());
    query[3] = bad;
    EXPECT_TRUE(searcher.Search(query, 10, StopRule::Exact())
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(searcher.Search(query, 10, StopRule::MaxChunks(2))
                    .status()
                    .IsInvalidArgument());
    const std::vector<std::span<const float>> batch = {base, query};
    EXPECT_TRUE(searcher.SearchShared(batch, 10, StopRule::Exact())
                    .status()
                    .IsInvalidArgument());
  }
}

// Search and a batched SearchShared run the same executor; both are
// checked against the independent rank-order reference under every stop
// rule, on random and dataset queries.
TEST(SearcherTest, SearchAndSharedMatchRankOrderReference) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  const DiskCostModel model;
  Searcher searcher(&*fx.index, model);

  Rng rng(55);
  std::vector<std::vector<float>> queries;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    queries.push_back(std::move(query));
  }
  for (size_t pos : {0u, 100u, 517u}) {
    const auto v = fx.collection.Vector(pos);
    queries.emplace_back(v.begin(), v.end());
  }
  std::vector<std::span<const float>> spans(queries.begin(), queries.end());

  auto probe = searcher.Search(spans[0], 10, StopRule::Exact());
  ASSERT_TRUE(probe.ok());
  const struct {
    const char* name;
    StopRule rule;
  } rules[] = {
      {"exact", StopRule::Exact()},
      {"epsilon-0.1", StopRule::EpsilonApproximate(0.1)},
      {"epsilon-1", StopRule::EpsilonApproximate(1.0)},
      {"max-chunks-0", StopRule::MaxChunks(0)},
      {"max-chunks-3", StopRule::MaxChunks(3)},
      {"max-chunks-all", StopRule::MaxChunks(1000)},
      {"time-budget-0", StopRule::TimeBudget(0)},
      {"time-budget-half",
       StopRule::TimeBudget(probe->telemetry.model_micros / 2)},
  };
  for (const auto& r : rules) {
    auto shared = searcher.SearchShared(spans, 10, r.rule);
    ASSERT_TRUE(shared.ok()) << r.name;
    ASSERT_EQ(shared->size(), spans.size());
    for (size_t q = 0; q < spans.size(); ++q) {
      const MethodResult reference =
          RankOrderReference(searcher, model, spans[q], 10, r.rule);
      auto alone = searcher.Search(spans[q], 10, r.rule);
      ASSERT_TRUE(alone.ok()) << r.name;
      const std::string label =
          std::string(r.name) + " query " + std::to_string(q);
      ExpectMatchesReference(*alone, reference, label + " (Search)");
      ExpectMatchesReference((*shared)[q], reference, label + " (shared)");
    }
  }
}

TEST(SearcherTest, RangeSearchMatchesBruteForce) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t pos = rng.Uniform(fx.collection.size());
    const double radius = rng.UniformDouble(1.0, 12.0);
    auto result = searcher.SearchRange(fx.collection.Vector(pos), radius,
                                       StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->telemetry.exact);

    size_t expected = 0;
    for (size_t i = 0; i < fx.collection.size(); ++i) {
      if (vec::Distance(fx.collection.Vector(i),
                        fx.collection.Vector(pos)) <= radius) {
        ++expected;
      }
    }
    EXPECT_EQ(result->neighbors.size(), expected) << "radius " << radius;
    for (size_t i = 1; i < result->neighbors.size(); ++i) {
      EXPECT_GE(result->neighbors[i].distance,
                result->neighbors[i - 1].distance);
    }
    // The bound-based pruning must save reads for small balls.
    EXPECT_LE(result->telemetry.chunks_read, fx.index->num_chunks());
  }
}

TEST(SearcherTest, ApproximateRangeIsSubset) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(33);
  const double radius = 8.0;

  auto exact = searcher.SearchRange(query, radius, StopRule::Exact());
  auto approx = searcher.SearchRange(query, radius, StopRule::MaxChunks(2));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  EXPECT_FALSE(approx->telemetry.exact);
  EXPECT_LE(approx->neighbors.size(), exact->neighbors.size());
  // Every approximate hit is a true hit.
  for (const Neighbor& a : approx->neighbors) {
    bool found = false;
    for (const Neighbor& e : exact->neighbors) {
      if (e.id == a.id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

// The kernel layer's determinism contract at the API that matters: the same
// queries through the forced-scalar path and through the best SIMD backend
// must return bit-identical results (ids, distances, chunks read,
// modeled time), so QVT_SIMD=off is purely a speed knob.
TEST(SearcherTest, SimdAndScalarBackendsReturnIdenticalResults) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const kernels::Backend best = kernels::ActiveBackend();

  Rng rng(321);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    const double radius = rng.UniformDouble(2.0, 12.0);

    kernels::SetBackendForTesting(kernels::Backend::kScalar);
    auto knn_scalar = searcher.Search(query, 10, StopRule::Exact());
    auto range_scalar = searcher.SearchRange(query, radius, StopRule::Exact());
    kernels::SetBackendForTesting(best);
    auto knn_simd = searcher.Search(query, 10, StopRule::Exact());
    auto range_simd = searcher.SearchRange(query, radius, StopRule::Exact());
    kernels::ResetBackendForTesting();

    ASSERT_TRUE(knn_scalar.ok() && knn_simd.ok());
    ASSERT_TRUE(range_scalar.ok() && range_simd.ok());
    for (auto [a, b] : {std::pair{&*knn_scalar, &*knn_simd},
                        std::pair{&*range_scalar, &*range_simd}}) {
      EXPECT_EQ(a->telemetry.chunks_read, b->telemetry.chunks_read);
      EXPECT_EQ(a->telemetry.descriptors_scanned,
                b->telemetry.descriptors_scanned);
      EXPECT_EQ(a->telemetry.model_micros, b->telemetry.model_micros);
      EXPECT_EQ(a->telemetry.exact, b->telemetry.exact);
      ASSERT_EQ(a->neighbors.size(), b->neighbors.size());
      for (size_t i = 0; i < a->neighbors.size(); ++i) {
        EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id) << "rank " << i;
        // Bitwise equality, not almost-equal: the kernels promise it.
        EXPECT_EQ(a->neighbors[i].distance, b->neighbors[i].distance)
            << "rank " << i;
      }
    }
  }
}

TEST(SearcherTest, RangeSearchRejectsBadArguments) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  EXPECT_TRUE(searcher
                  .SearchRange(fx.collection.Vector(0), -0.5,
                               StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  std::vector<float> wrong(3, 0.0f);
  EXPECT_TRUE(searcher.SearchRange(wrong, 1.0, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  const auto base = fx.collection.Vector(5);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> query(base.begin(), base.end());
    query[3] = bad;
    EXPECT_TRUE(searcher.SearchRange(query, 5.0, StopRule::Exact())
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(SearcherTest, ExactAcrossChunkersAgrees) {
  // Whatever the chunking, exact search must return identical distances.
  SrTreeChunker sr(70);
  RoundRobinChunker rr(70);
  IndexFixture sr_fx(&sr, 33);
  IndexFixture rr_fx(&rr, 33);
  Searcher sr_search(&*sr_fx.index, DiskCostModel());
  Searcher rr_search(&*rr_fx.index, DiskCostModel());

  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(30, 70));
    auto a = sr_search.Search(query, 8, StopRule::Exact());
    auto b = rr_search.Search(query, 8, StopRule::Exact());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(a->neighbors[i].distance, b->neighbors[i].distance, 1e-6);
    }
  }
}

TEST(SearcherTest, EpsilonApproximationBoundsError) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());

  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(30, 70));
    auto exact = searcher.Search(query, 10, StopRule::Exact());
    ASSERT_TRUE(exact.ok());
    for (double epsilon : {0.2, 1.0}) {
      auto approx =
          searcher.Search(query, 10, StopRule::EpsilonApproximate(epsilon));
      ASSERT_TRUE(approx.ok());
      // The exactness flag may only be claimed when every chunk was
      // scanned (then the answer is exact regardless of epsilon).
      if (approx->telemetry.exact) {
        EXPECT_EQ(approx->telemetry.chunks_read, fx.index->num_chunks());
      }
      // (1+eps)-guarantee: every reported distance is within (1+eps) of the
      // true distance at that rank.
      for (size_t i = 0; i < 10; ++i) {
        EXPECT_LE(approx->neighbors[i].distance,
                  (1.0 + epsilon) * exact->neighbors[i].distance + 1e-9);
      }
      // Never more work than the exact search.
      EXPECT_LE(approx->telemetry.chunks_read, exact->telemetry.chunks_read);
    }
  }
}

TEST(SearcherTest, ZeroEpsilonEqualsExact) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(42);
  auto a = searcher.Search(query, 10, StopRule::Exact());
  auto b = searcher.Search(query, 10, StopRule::EpsilonApproximate(0.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->telemetry.exact);
  EXPECT_EQ(a->telemetry.chunks_read, b->telemetry.chunks_read);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a->neighbors[i].id, b->neighbors[i].id);
  }
}

// Satellite regression: the vectorized RankChunks (one batched kernel call
// over the contiguous centroid matrix) must reproduce the old per-centroid
// vec::Distance loop bit-for-bit, ties broken by chunk id.
TEST(SearcherTest, RankChunksMatchesScalarCentroidReference) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const size_t num_chunks = fx.index->num_chunks();

  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));

    SearchScratch scratch;
    searcher.RankChunks(query, scratch);

    std::vector<double> reference(num_chunks);
    std::vector<uint32_t> order(num_chunks);
    for (size_t i = 0; i < num_chunks; ++i) {
      order[i] = static_cast<uint32_t>(i);
      reference[i] = vec::Distance(query, fx.index->centroid(i));
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (reference[a] != reference[b]) return reference[a] < reference[b];
      return a < b;
    });

    ASSERT_EQ(scratch.rank_order.size(), num_chunks);
    for (size_t i = 0; i < num_chunks; ++i) {
      EXPECT_EQ(scratch.centroid_distance[i], reference[i]) << "chunk " << i;
      EXPECT_EQ(scratch.rank_order[i], order[i]) << "rank " << i;
    }
  }
}

// Everything quality evaluation consumes must be equal, distances bitwise.
void ExpectSameAnswer(const MethodResult& a, const MethodResult& b) {
  EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read);
  EXPECT_EQ(a.telemetry.descriptors_scanned, b.telemetry.descriptors_scanned);
  EXPECT_EQ(a.telemetry.exact, b.telemetry.exact);
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << "rank " << i;
    EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
        << "rank " << i;
  }
}

// A ChunkCache changes where chunk bytes come from, never the answer: fed
// the same query sequence (repeats make warm hits), the cached searcher's
// k-NN and range results match the uncached one; a warm hit may only make
// the modeled time cheaper.
TEST(SearcherTest, CachedSearchMatchesUncached) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  ChunkCache cache(64);  // small: eviction churn
  Searcher plain(&*fx.index, DiskCostModel());
  Searcher cached(&*fx.index, DiskCostModel(), &cache);

  const StopRule rules[] = {StopRule::Exact(), StopRule::MaxChunks(5)};
  for (size_t pos : {0u, 11u, 222u, 333u, 11u, 0u}) {
    const auto query = fx.collection.Vector(pos);
    for (const StopRule& rule : rules) {
      auto a = plain.Search(query, 10, rule);
      auto b = cached.Search(query, 10, rule);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ExpectSameAnswer(*a, *b);
      EXPECT_LE(b->telemetry.model_micros, a->telemetry.model_micros);
      EXPECT_EQ(b->telemetry.cache_hits + b->telemetry.cache_misses,
                b->telemetry.chunks_read);

      auto c = plain.SearchRange(query, 6.0, rule);
      auto d = cached.SearchRange(query, 6.0, rule);
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE(d.ok());
      ExpectSameAnswer(*c, *d);
    }
  }
  EXPECT_GT(cache.Stats().hits, 0u);
}

// A chunk read that fails mid-order surfaces as the read's own Status from
// every scan loop, cached or not: the chunk file is cut short before its
// last stored chunk, and a query whose rank order reaches that chunk after
// reading others must fail with exactly what ReadChunk reports.
TEST(SearcherTest, FailedChunkReadMidOrderReturnsItsStatus) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  const size_t num_chunks = fx.index->num_chunks();
  uint32_t last = 0;
  for (uint32_t c = 1; c < num_chunks; ++c) {
    if (fx.index->location(c).first_page >
        fx.index->location(last).first_page) {
      last = c;
    }
  }
  // Copy the index under a new base with the chunk file truncated at the
  // page where `last` begins.
  const ChunkIndexPaths from = ChunkIndexPaths::ForBase("idx");
  const ChunkIndexPaths to = ChunkIndexPaths::ForBase("cut");
  const auto copy = [&](const std::string& src, const std::string& dst,
                        uint64_t bytes) {
    auto in = fx.env.NewRandomAccessFile(src);
    QVT_CHECK_OK(in.status());
    std::vector<uint8_t> buffer(bytes);
    QVT_CHECK_OK((*in)->Read(0, bytes, buffer.data()));
    auto out = fx.env.NewWritableFile(dst);
    QVT_CHECK_OK(out.status());
    QVT_CHECK_OK((*out)->Append(buffer.data(), buffer.size()));
    QVT_CHECK_OK((*out)->Close());
  };
  copy(from.index_file, to.index_file, *fx.env.GetFileSize(from.index_file));
  copy(from.chunk_file, to.chunk_file,
       fx.index->location(last).first_page * kPageSize);
  auto cut = ChunkIndex::Open(&fx.env, to);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  ChunkData chunk;
  const Status expected = cut->ReadChunk(last, &chunk);
  ASSERT_FALSE(expected.ok());

  // Centered on another chunk's centroid, so rank 0 reads fine and the
  // failure comes after it.
  const uint32_t home = last == 0 ? 1 : 0;
  const std::vector<float> query(fx.index->centroid(home).begin(),
                                 fx.index->centroid(home).end());
  const std::vector<float> other(fx.collection.Vector(7).begin(),
                                 fx.collection.Vector(7).end());
  const std::span<const float> batch[] = {query, other};
  const StopRule rules[] = {
      StopRule::MaxChunks(num_chunks),  // static schedule
      StopRule::TimeBudget(std::numeric_limits<int64_t>::max())};  // rounds
  ChunkCache cache(100000);
  for (ChunkCache* c : {static_cast<ChunkCache*>(nullptr), &cache}) {
    Searcher searcher(&*cut, DiskCostModel(), c);
    for (const StopRule& rule : rules) {
      size_t chunks_before_failure = 0;
      const SearchObserver count = [&](const SearchProgress&) {
        ++chunks_before_failure;
      };
      auto alone = searcher.Search(query, 10, rule, count);
      ASSERT_FALSE(alone.ok());
      EXPECT_EQ(alone.status().ToString(), expected.ToString());
      EXPECT_GE(chunks_before_failure, 1u);
      EXPECT_LT(chunks_before_failure, num_chunks);

      auto shared = searcher.SearchShared(batch, 10, rule);
      ASSERT_FALSE(shared.ok());
      EXPECT_EQ(shared.status().ToString(), expected.ToString());
    }
    auto range = searcher.SearchRange(query, 1e9, StopRule::Exact());
    ASSERT_FALSE(range.ok());
    EXPECT_EQ(range.status().ToString(), expected.ToString());
  }
}

TEST(SearcherTest, ApproximateIsSubsetQualityOfExact) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const auto query = fx.collection.Vector(123);

  auto exact = searcher.Search(query, 10, StopRule::Exact());
  ASSERT_TRUE(exact.ok());
  auto approx = searcher.Search(query, 10, StopRule::MaxChunks(2));
  ASSERT_TRUE(approx.ok());
  // The approximate k-th distance can never beat the exact one.
  ASSERT_FALSE(approx->neighbors.empty());
  EXPECT_GE(approx->neighbors.back().distance,
            exact->neighbors.back().distance - 1e-9);
}

}  // namespace
}  // namespace qvt

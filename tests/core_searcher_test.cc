#include "core/searcher.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
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

// Chunk-level abandon skips a chunk's sweep only when its bound exceeds
// the k-th distance; a bound equal to it is swept, since a row at exactly
// the k-th distance with a smaller id still enters the set. Rows lie on
// axis 0 around a query at the origin:
//   chunk 0: id 1 at -0.8 and id 2 at 1.0 (centroid 0.1, ranked first);
//   chunk 1: id 0 at 1.0 alone (radius 0, sphere and rectangle bound 1.0);
//   chunk 2: id 3 at 1 + 2^-20 alone (bound above 1.0).
// At k = 2 the k-th after chunk 0 is 1.0 (id 2). Chunk 1's bound equals it,
// so chunk 1 is swept and id 0 takes id 2's place; chunk 2 is read under
// MaxChunks(3) but not swept.
TEST(SearcherTest, ChunkBoundEqualToKthIsSweptNotSkipped) {
  MemEnv env;
  Collection collection;
  const auto row = [](float x) {
    std::vector<float> v(kDescriptorDim, 0.0f);
    v[0] = x;
    return v;
  };
  collection.Append(0, row(1.0f), 0);
  collection.Append(1, row(-0.8f), 0);
  collection.Append(2, row(1.0f), 0);
  collection.Append(3, row(1.0f + 0x1p-20f), 0);
  ChunkingResult chunking;
  chunking.chunks = {{1, 2}, {0}, {3}};
  auto index = ChunkIndex::Build(collection, chunking, &env,
                                 ChunkIndexPaths::ForBase("tie"));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->radius(1), 0.0);
  const Searcher searcher(&*index, DiskCostModel());
  const std::vector<float> query(kDescriptorDim, 0.0f);

  std::vector<bool> skipped;
  const SearchObserver observer = [&](const SearchProgress& progress) {
    skipped.push_back(progress.skipped);
  };
  for (const StopRule& rule : {StopRule::Exact(), StopRule::MaxChunks(3)}) {
    const bool exact = rule.kind == StopRule::Kind::kExact;
    SCOPED_TRACE(exact ? "exact" : "max-chunks-3");
    skipped.clear();
    auto alone = searcher.Search(query, 2, rule, observer);
    ASSERT_TRUE(alone.ok());
    // The exact rule stops before chunk 2 (its bound exceeds the k-th).
    std::vector<bool> want = {false, false};
    if (!exact) want.push_back(true);
    EXPECT_EQ(skipped, want);
    const std::vector<std::span<const float>> batch = {query, query};
    auto shared = searcher.SearchShared(batch, 2, rule);
    ASSERT_TRUE(shared.ok());
    std::vector<const MethodResult*> answers = {&*alone};
    for (const MethodResult& r : *shared) answers.push_back(&r);
    // The same pair through BatchSearcher, whose threads run slices.
    const Workload workload = ToWorkload(batch);
    const auto method = MakeChunkedMethod(&*index);
    std::vector<BatchSearchResult> batches;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      for (const bool shared_scan : {true, false}) {
        BatchSearcher batcher(method.get(), threads, shared_scan);
        auto batched = batcher.SearchAll(workload, 2, rule);
        ASSERT_TRUE(batched.ok());
        batches.push_back(std::move(batched).value());
      }
    }
    for (const BatchSearchResult& b : batches) {
      for (const MethodResult& r : b.results) answers.push_back(&r);
    }
    for (const MethodResult* got : answers) {
      const QueryTelemetry& t = got->telemetry;
      EXPECT_EQ(t.chunks_read, exact ? 2u : 3u);
      EXPECT_EQ(t.sweeps_skipped, exact ? 0u : 1u);
      EXPECT_EQ(t.exact, exact);
      ASSERT_EQ(got->neighbors.size(), 2u);
      EXPECT_EQ(got->neighbors[0].id, 1u);
      EXPECT_EQ(got->neighbors[1].id, 0u);
      EXPECT_EQ(got->neighbors[1].distance, 1.0);
    }
  }
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
  uint64_t sweeps_skipped = 0;
  uint64_t chunks_skipped = 0;
  for (const auto& r : rules) {
    auto shared = searcher.SearchShared(spans, 10, r.rule);
    ASSERT_TRUE(shared.ok()) << r.name;
    ASSERT_EQ(shared->size(), spans.size());
    for (size_t q = 0; q < spans.size(); ++q) {
      const MethodResult reference =
          RankOrderReference(searcher, model, spans[q], 10, r.rule);
      const MethodResult paper = RankOrderReference(
          searcher, model, spans[q], 10, r.rule, {.skip = false});
      auto alone = searcher.Search(spans[q], 10, r.rule);
      ASSERT_TRUE(alone.ok()) << r.name;
      const std::string label =
          std::string(r.name) + " query " + std::to_string(q);
      ExpectMatchesReference(*alone, reference, label + " (Search)");
      ExpectMatchesReference((*shared)[q], reference, label + " (shared)");
      // Skipping changes no answer and no stop rank: the paper's rule
      // reads exactly the ranks read or skipped.
      ExpectSameBits(reference.neighbors, paper.neighbors, label);
      EXPECT_EQ(reference.telemetry.exact, paper.telemetry.exact) << label;
      EXPECT_EQ(alone->telemetry.chunks_read + alone->telemetry.chunks_skipped,
                paper.telemetry.chunks_read)
          << label;
      sweeps_skipped += alone->telemetry.sweeps_skipped +
                        (*shared)[q].telemetry.sweeps_skipped;
      chunks_skipped += alone->telemetry.chunks_skipped +
                        (*shared)[q].telemetry.chunks_skipped;
    }
  }
  // Both chunk-level tests fired: ranks skipped unread (exact, epsilon) and
  // sweeps skipped after the read (max-chunks, time budget), so the
  // identities above cover both.
  EXPECT_GT(sweeps_skipped, 0u);
  EXPECT_GT(chunks_skipped, 0u);
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

// An index in which every centroid appears twice: the collection holds
// each row of TestCollection() twice (positions p and p + n), and chunk
// c + C holds the copies of chunk c's rows in the same order, so the two
// centroids are bit-identical and centroid-distance ties must break by
// chunk id.
struct DuplicatedCentroidFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  DuplicatedCentroidFixture() {
    const Collection base = TestCollection();
    const size_t n = base.size();
    for (size_t copy = 0; copy < 2; ++copy) {
      for (size_t p = 0; p < n; ++p) {
        collection.Append(static_cast<DescriptorId>(base.Id(p) + copy * n),
                          base.Vector(p), base.Image(p));
      }
    }
    SrTreeChunker chunker(60);
    auto chunking = chunker.FormChunks(base);
    QVT_CHECK(chunking.ok());
    QVT_CHECK(chunking->outliers.empty());
    const size_t num_base_chunks = chunking->chunks.size();
    for (size_t c = 0; c < num_base_chunks; ++c) {
      std::vector<size_t> copy = chunking->chunks[c];
      for (size_t& p : copy) p += n;
      chunking->chunks.push_back(std::move(copy));
    }
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("dup"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }
};

// Under MaxChunks(m) RankChunks sorts only the first m ranks. Those ranks
// and every centroid distance must equal the full ranking's, with ties
// (every centroid is duplicated) broken by chunk id; no suffix bound from
// an earlier exact ranking may survive in the reused scratch.
TEST(SearcherTest, MaxChunksRankingIsPrefixOfFullRanking) {
  DuplicatedCentroidFixture fx;
  Searcher searcher(&*fx.index, DiskCostModel());
  const size_t n = fx.index->num_chunks();
  ASSERT_GE(n, 10u);
  const size_t half = n / 2;
  for (size_t c = 0; c < half; ++c) {
    const auto a = fx.index->centroid(c);
    const auto b = fx.index->centroid(c + half);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "chunk " << c;
  }

  Rng rng(23);
  std::vector<std::vector<float>> queries;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    queries.push_back(std::move(query));
  }
  for (size_t pos : {0u, 333u}) {
    const auto v = fx.collection.Vector(pos);
    queries.emplace_back(v.begin(), v.end());
  }

  SearchScratch full;
  SearchScratch partial;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int64_t full_micros = searcher.RankChunks(queries[qi], full);
    ASSERT_EQ(full.rank_order.size(), n);
    for (const size_t m : {size_t{0}, size_t{1}, size_t{8}, n - 1, n, n + 3}) {
      const std::string label =
          "query " + std::to_string(qi) + " m " + std::to_string(m);
      searcher.RankChunks(queries[qi], partial);  // leaves a suffix bound
      ASSERT_EQ(partial.suffix_min_bound.size(), n + 1) << label;
      EXPECT_EQ(searcher.RankChunks(queries[qi], partial,
                                    StopRule::MaxChunks(m)),
                full_micros)
          << label;
      EXPECT_TRUE(partial.suffix_min_bound.empty()) << label;
      ASSERT_EQ(partial.rank_order.size(), n) << label;
      ASSERT_EQ(partial.centroid_distance.size(), n) << label;
      for (size_t r = 0; r < std::min(m, n); ++r) {
        EXPECT_EQ(partial.rank_order[r], full.rank_order[r])
            << label << " rank " << r;
      }
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(&partial.centroid_distance[i],
                              &full.centroid_distance[i], sizeof(double)),
                  0)
            << label << " chunk " << i;
      }
      // The unsorted tail still names every chunk exactly once.
      std::vector<uint32_t> ids = partial.rank_order;
      std::sort(ids.begin(), ids.end());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ids[i], i) << label;
      }
    }
  }
}

// One MaxChunks(m) plan against the full ranking of the same query (a lone
// RankChunks into a fresh scratch): the first m ranks are the full sort's,
// rank_order names every chunk exactly once, every centroid distance is
// bit-equal, and no suffix bound is left behind.
void ExpectSelectionPlan(const SearchScratch& plan, const SearchScratch& full,
                         size_t m, const std::string& label) {
  const size_t n = full.rank_order.size();
  ASSERT_EQ(plan.rank_order.size(), n) << label;
  ASSERT_EQ(plan.centroid_distance.size(), n) << label;
  EXPECT_TRUE(plan.suffix_min_bound.empty()) << label;
  for (size_t r = 0; r < std::min(m, n); ++r) {
    EXPECT_EQ(plan.rank_order[r], full.rank_order[r]) << label << " rank " << r;
  }
  std::vector<uint32_t> ids = plan.rank_order;
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ids[i], i) << label << ": rank_order is not a permutation";
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&plan.centroid_distance[i],
                          &full.centroid_distance[i], sizeof(double)),
              0)
        << label << " chunk " << i;
  }
}

// The MaxChunks selection writes the whole rank order itself, so nothing a
// scratch held before may show through: ranked into a fresh scratch, or
// into one last ranked for a different query (under the exact rule or the
// same budget), the plan must hold the full sort's first m ranks and a
// permutation of every chunk. The same holds for every query of a batched
// plan (the plan SearchShared runs) of 1, 3, 4, 5 and 9 queries, whose
// answers must equal the lone searches'. Every centroid is duplicated, so
// ties are broken by chunk id throughout.
TEST(SearcherTest, MaxChunksSelectionFillsFreshAndForeignScratch) {
  DuplicatedCentroidFixture fx;
  Searcher searcher(&*fx.index, DiskCostModel());
  const size_t n = fx.index->num_chunks();
  ASSERT_GE(n, 10u);

  Rng rng(31);
  std::vector<std::vector<float>> queries;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<float> query(kDescriptorDim);
    for (auto& x : query) x = static_cast<float>(rng.UniformDouble(20, 80));
    queries.push_back(std::move(query));
  }
  for (size_t pos : {0u, 333u, 1500u}) {
    const auto v = fx.collection.Vector(pos);
    queries.emplace_back(v.begin(), v.end());
  }
  const size_t nq = queries.size();
  std::vector<std::span<const float>> spans(queries.begin(), queries.end());
  std::vector<SearchScratch> full(nq);
  std::vector<int64_t> full_micros(nq);
  for (size_t q = 0; q < nq; ++q) {
    full_micros[q] = searcher.RankChunks(queries[q], full[q]);
  }

  for (const size_t m : {size_t{0}, size_t{1}, size_t{8}, n - 1, n, n + 3}) {
    const StopRule rule = StopRule::MaxChunks(m);
    const std::string at_m = "m " + std::to_string(m);
    for (size_t q = 0; q < nq; ++q) {
      const std::string label = at_m + " query " + std::to_string(q);
      SearchScratch fresh;
      EXPECT_EQ(searcher.RankChunks(queries[q], fresh, rule), full_micros[q])
          << label;
      ExpectSelectionPlan(fresh, full[q], m, label + " (fresh)");
      for (const StopRule& previous : {StopRule::Exact(), rule}) {
        SearchScratch foreign;
        searcher.RankChunks(queries[(q + 1) % nq], foreign, previous);
        searcher.RankChunks(queries[q], foreign, rule);
        ExpectSelectionPlan(foreign, full[q], m, label + " (foreign)");
      }
    }
    for (const size_t batch : {1u, 3u, 4u, 5u, 9u}) {
      const std::string label = at_m + " batch " + std::to_string(batch);
      const auto batch_spans = std::span(spans).first(batch);
      std::vector<SearchScratch> fresh(batch);
      std::vector<SearchScratch> foreign(batch);
      std::vector<SearchScratch*> fresh_ptrs;
      std::vector<SearchScratch*> foreign_ptrs;
      for (size_t q = 0; q < batch; ++q) {
        searcher.RankChunks(queries[(q + 1) % nq], foreign[q]);
        fresh_ptrs.push_back(&fresh[q]);
        foreign_ptrs.push_back(&foreign[q]);
      }
      EXPECT_EQ(searcher.RankChunksBatch(batch_spans, fresh_ptrs, rule),
                full_micros[0])
          << label;
      searcher.RankChunksBatch(batch_spans, foreign_ptrs, rule);
      for (size_t q = 0; q < batch; ++q) {
        const std::string query = " query " + std::to_string(q);
        ExpectSelectionPlan(fresh[q], full[q], m, label + query + " (fresh)");
        ExpectSelectionPlan(foreign[q], full[q], m,
                            label + query + " (foreign)");
      }
      auto shared = searcher.SearchShared(batch_spans, 10, rule);
      ASSERT_TRUE(shared.ok()) << label;
      for (size_t q = 0; q < batch; ++q) {
        const std::string query = label + " query " + std::to_string(q);
        auto alone = searcher.Search(queries[q], 10, rule);
        ASSERT_TRUE(alone.ok()) << query;
        const MethodResult& got = (*shared)[q];
        EXPECT_EQ(got.telemetry.chunks_read, alone->telemetry.chunks_read)
            << query;
        ASSERT_EQ(got.neighbors.size(), alone->neighbors.size()) << query;
        for (size_t r = 0; r < got.neighbors.size(); ++r) {
          EXPECT_EQ(got.neighbors[r].id, alone->neighbors[r].id) << query;
          EXPECT_EQ(std::memcmp(&got.neighbors[r].distance,
                                &alone->neighbors[r].distance, sizeof(double)),
                    0)
              << query << " rank " << r;
        }
      }
    }
  }
}

// The executor under MaxChunks plans with the partial ranking; the
// rank-order reference plans with the full one. For every budget, thread
// count and batch mode the answers, chunks read, model clock and exact
// verdict must agree bit for bit.
TEST(SearcherTest, MaxChunksExecutorsMatchFullRankingReference) {
  DuplicatedCentroidFixture fx;
  const DiskCostModel model;
  Searcher searcher(&*fx.index, model);
  const auto method = MakeChunkedMethod(&*fx.index);
  const size_t n = fx.index->num_chunks();
  Rng rng(29);
  const Workload workload = MakeDatasetQueries(fx.collection, 24, &rng);
  std::vector<std::span<const float>> spans;
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    spans.push_back(workload.Query(q));
  }

  SearchScratch reused;
  uint64_t skipped = 0;
  for (const size_t m : {size_t{1}, size_t{8}, n, n + 3}) {
    const StopRule rule = StopRule::MaxChunks(m);
    std::vector<MethodResult> reference;
    for (const auto& query : spans) {
      reference.push_back(RankOrderReference(searcher, model, query, 10, rule));
    }
    for (size_t q = 0; q < spans.size(); ++q) {
      const std::string label =
          "m " + std::to_string(m) + " query " + std::to_string(q);
      // A scratch last used by an exact search must not leak its plan.
      ASSERT_TRUE(
          searcher.Search(spans[q], 10, StopRule::Exact(), nullptr, &reused)
              .ok());
      auto alone = searcher.Search(spans[q], 10, rule, nullptr, &reused);
      ASSERT_TRUE(alone.ok()) << label;
      ExpectMatchesReference(*alone, reference[q], label + " (Search)");
    }
    auto shared = searcher.SearchShared(spans, 10, rule);
    ASSERT_TRUE(shared.ok()) << "m " << m;
    for (size_t q = 0; q < spans.size(); ++q) {
      ExpectMatchesReference((*shared)[q], reference[q],
                             "m " + std::to_string(m) + " query " +
                                 std::to_string(q) + " (SearchShared)");
    }
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      const std::string label =
          "m " + std::to_string(m) + " t" + std::to_string(threads);
      for (const bool shared_scan : {true, false}) {
        const std::string mode =
            shared_scan ? " (chunk-major)" : " (query-major)";
        BatchSearcher batcher(method.get(), threads, shared_scan);
        auto batch = batcher.SearchAll(workload, 10, rule);
        ASSERT_TRUE(batch.ok()) << label << mode;
        EXPECT_EQ(batch->shared.enabled, shared_scan) << label << mode;
        for (size_t q = 0; q < spans.size(); ++q) {
          ExpectMatchesReference(batch->results[q], reference[q],
                                 label + " query " + std::to_string(q) + mode);
        }
        skipped += batch->totals.sweeps_skipped;
      }
    }
  }
  EXPECT_GT(skipped, 0u);
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
// k-NN results match the uncached one; a warm hit may only make the
// modeled time cheaper.
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
  }
}

/// Every fourth-ish id of `collection`, drawn with `rng`, sorted ascending:
/// the dead rows a dynamic shard hands its searcher.
std::vector<DescriptorId> RandomExcluded(const Collection& collection,
                                         Rng* rng) {
  std::vector<DescriptorId> excluded;
  for (size_t i = 0; i < collection.size(); ++i) {
    if (rng->Uniform(4) == 0) excluded.push_back(collection.Id(i));
  }
  std::sort(excluded.begin(), excluded.end());
  return excluded;
}

/// The over-fetch answer the filter replaces: k + |excluded| neighbors,
/// the excluded ones dropped afterwards, truncated to k.
std::vector<Neighbor> FilterAndTruncate(
    const std::vector<Neighbor>& neighbors,
    const std::vector<DescriptorId>& excluded, size_t k) {
  std::vector<Neighbor> live;
  for (const Neighbor& n : neighbors) {
    if (std::binary_search(excluded.begin(), excluded.end(), n.id)) continue;
    if (live.size() < k) live.push_back(n);
  }
  return live;
}

// Under MaxChunks the chunks read do not depend on k, so filtering dead
// rows inside the scan at k is bit-identical to over-fetching k + |E| and
// filtering afterwards: same ids, same distance bits, same chunks read and
// model clock — through Search, through SearchShared, and through
// BatchSearcher at 1, 2, 3 and 4 threads.
TEST(SearcherTest, ExcludedUnderMaxChunksEqualsOverFetchThenFilter) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  const size_t n = fx.index->num_chunks();
  Rng rng(31);
  const std::vector<DescriptorId> excluded =
      RandomExcluded(fx.collection, &rng);
  ASSERT_FALSE(excluded.empty());
  const Workload workload = MakeDatasetQueries(fx.collection, 16, &rng);
  std::vector<std::span<const float>> spans;
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    spans.push_back(workload.Query(q));
  }
  const size_t k = 10;
  uint64_t refused = 0;
  for (const size_t m : {size_t{1}, size_t{8}, n}) {
    const StopRule rule = StopRule::MaxChunks(m);
    std::vector<MethodResult> filtered;
    for (size_t q = 0; q < spans.size(); ++q) {
      const std::string label =
          "m " + std::to_string(m) + " query " + std::to_string(q);
      auto over = searcher.Search(spans[q], k + excluded.size(), rule);
      auto got = searcher.Search(spans[q], k, rule, nullptr, nullptr,
                                 excluded);
      ASSERT_TRUE(over.ok()) << label;
      ASSERT_TRUE(got.ok()) << label;
      const std::vector<Neighbor> want =
          FilterAndTruncate(over->neighbors, excluded, k);
      ASSERT_EQ(got->neighbors.size(), want.size()) << label;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got->neighbors[r].id, want[r].id) << label << " rank " << r;
        EXPECT_EQ(got->neighbors[r].distance, want[r].distance)
            << label << " rank " << r;
      }
      EXPECT_EQ(got->telemetry.chunks_read, over->telemetry.chunks_read)
          << label;
      EXPECT_EQ(got->telemetry.model_micros, over->telemetry.model_micros)
          << label;
      EXPECT_EQ(got->telemetry.model_overlapped_micros,
                over->telemetry.model_overlapped_micros)
          << label;
      refused += got->telemetry.tombstones_filtered;
      filtered.push_back(std::move(got).value());
    }
    auto shared = searcher.SearchShared(spans, k, rule, nullptr, excluded);
    ASSERT_TRUE(shared.ok());
    std::vector<std::vector<MethodResult>> batches = {std::move(*shared)};
    // The same filter through BatchSearcher, whose threads run slices.
    const FixedArgsChunkedMethod method(&searcher, &workload, excluded);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      BatchSearcher batcher(&method, threads);
      auto batch = batcher.SearchAll(workload, k, rule);
      ASSERT_TRUE(batch.ok());
      batches.push_back(std::move(batch->results));
    }
    for (const std::vector<MethodResult>& got : batches) {
      ASSERT_EQ(got.size(), spans.size());
      for (size_t q = 0; q < spans.size(); ++q) {
        ExpectSameAnswer(got[q], filtered[q]);
        // The refusal count is not compared: it depends on the order rows
        // are offered, and a batch sweeps chunks in its shared schedule.
        EXPECT_EQ(got[q].telemetry.model_micros,
                  filtered[q].telemetry.model_micros);
      }
    }
  }
  // Dataset queries sit on rows, a quarter of which are dead.
  EXPECT_GT(refused, 0u);
}

// Under the exact rule the filtered search is exact over the live rows,
// and since its k-th distance is that of k live rows instead of k + |E|
// rows, it never reads more chunks than the over-fetch search.
TEST(SearcherTest, ExcludedUnderExactRuleMatchesLiveScan) {
  SrTreeChunker chunker(60);
  IndexFixture fx(&chunker);
  Searcher searcher(&*fx.index, DiskCostModel());
  Rng rng(37);
  const std::vector<DescriptorId> excluded =
      RandomExcluded(fx.collection, &rng);
  std::vector<size_t> live_positions;
  for (size_t i = 0; i < fx.collection.size(); ++i) {
    if (!std::binary_search(excluded.begin(), excluded.end(),
                            fx.collection.Id(i))) {
      live_positions.push_back(i);
    }
  }
  const Collection live = fx.collection.Subset(live_positions);
  const Workload workload = MakeDatasetQueries(fx.collection, 16, &rng);
  const size_t k = 10;
  uint64_t filtered_chunks = 0;
  uint64_t over_chunks = 0;
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    const std::string label = "query " + std::to_string(q);
    const auto query = workload.Query(q);
    auto got = searcher.Search(query, k, StopRule::Exact(), nullptr, nullptr,
                               excluded);
    auto over = searcher.Search(query, k + excluded.size(), StopRule::Exact());
    ASSERT_TRUE(got.ok()) << label;
    ASSERT_TRUE(over.ok()) << label;
    EXPECT_TRUE(got->telemetry.exact) << label;
    const std::vector<Neighbor> truth = ExactScan(live, query, k);
    ASSERT_EQ(got->neighbors.size(), truth.size()) << label;
    for (size_t r = 0; r < truth.size(); ++r) {
      EXPECT_EQ(got->neighbors[r].id, truth[r].id) << label << " rank " << r;
      EXPECT_EQ(got->neighbors[r].distance, truth[r].distance)
          << label << " rank " << r;
    }
    EXPECT_LE(got->telemetry.chunks_read, over->telemetry.chunks_read)
        << label;
    filtered_chunks += got->telemetry.chunks_read;
    over_chunks += over->telemetry.chunks_read;
  }
  EXPECT_LT(filtered_chunks, over_chunks);
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

// The float bound filter's hardest collection: every row and query shifted
// by one large common vector (||x||^2 ~1e9 times the squared distances that
// decide the answers) and every fifth row stored twice under a fresh id
// (exact ties). Chunked answers — ids and distance bits — must still be
// ExactScan's under the exact rule and when MaxChunks reads every chunk,
// and the rank-order reference's (which never filters) under a small
// MaxChunks, chunk- and query-major, at 1 and 4 threads, on every backend.
TEST(SearcherTest, FilteredSweepMatchesExactScanOnOffsetCollection) {
  const Collection plain = TestCollection(29);
  Collection collection(plain.dim());
  Rng rng(31);
  std::vector<double> shift(plain.dim());
  for (auto& v : shift) v = rng.UniformDouble(1e4, 1e5);
  DescriptorId next_id = 0;
  for (size_t pos = 0; pos < plain.size(); ++pos) {
    next_id = std::max(next_id, plain.Id(pos) + 1);
  }
  std::vector<float> row(plain.dim());
  for (size_t pos = 0; pos < plain.size(); ++pos) {
    const auto v = plain.Vector(pos);
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = static_cast<float>(shift[d] + v[d]);
    }
    collection.Append(plain.Id(pos), row);
    if (pos % 5 == 0) collection.Append(next_id++, row);
  }
  MemEnv env;
  SrTreeChunker chunker(60);
  auto chunking = chunker.FormChunks(collection);
  ASSERT_TRUE(chunking.ok());
  auto built = ChunkIndex::Build(collection, *chunking, &env,
                                 ChunkIndexPaths::ForBase("offset"));
  ASSERT_TRUE(built.ok());
  const ChunkIndex& index = *built;
  const DiskCostModel model;
  Searcher searcher(&index, model);
  const auto method = MakeChunkedMethod(&index);
  const Workload workload = MakeDatasetQueries(collection, 24, &rng);

  const struct {
    const char* name;
    StopRule rule;
    bool exact_scan;  ///< false: the rank-order reference is the oracle
  } rules[] = {
      {"exact", StopRule::Exact(), true},
      {"max-chunks-all", StopRule::MaxChunks(index.num_chunks()), true},
      {"max-chunks-3", StopRule::MaxChunks(3), false},
  };
  for (const kernels::Backend backend : kernels::SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    for (const auto& r : rules) {
      std::vector<MethodResult> expected;
      for (size_t q = 0; q < workload.num_queries(); ++q) {
        MethodResult want;
        if (r.exact_scan) {
          want.neighbors = ExactScan(collection, workload.Query(q), 10);
        } else {
          want = RankOrderReference(searcher, model, workload.Query(q), 10,
                                    r.rule);
        }
        expected.push_back(std::move(want));
      }
      for (const bool shared : {false, true}) {
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          BatchSearcher batch(method.get(), threads, shared);
          auto got = batch.SearchAll(workload, 10, r.rule);
          ASSERT_TRUE(got.ok());
          for (size_t q = 0; q < workload.num_queries(); ++q) {
            const std::string label =
                std::string(kernels::BackendName(backend)) + "/" + r.name +
                (shared ? "/chunk-major" : "/query-major") + "/t" +
                std::to_string(threads) + " query " + std::to_string(q);
            const MethodResult& a = got->results[q];
            const MethodResult& b = expected[q];
            if (r.rule.kind == StopRule::Kind::kExact) {
              EXPECT_TRUE(a.telemetry.exact) << label;
            }
            ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << label;
            for (size_t i = 0; i < a.neighbors.size(); ++i) {
              EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << label;
              EXPECT_EQ(std::memcmp(&a.neighbors[i].distance,
                                    &b.neighbors[i].distance, sizeof(double)),
                        0)
                  << label << " rank " << i;
            }
          }
        }
      }
    }
  }
  kernels::ResetBackendForTesting();
}

}  // namespace
}  // namespace qvt

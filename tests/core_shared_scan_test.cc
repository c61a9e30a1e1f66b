// Chunk-major batched execution (shared chunk scans): the bit-identity
// sweep of the acceptance bar — batched-vs-per-query results must be
// byte-identical for every registered method, stop rule, SIMD backend, and
// thread count — plus detach semantics, duplicate-query dedup, the
// constructor switch, the fused multi-query kernel against its
// single-query reference, pq's query-major batches under threads, and the
// coalescing ledger.

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/search_method.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "kernel_backends.h"
#include "search_reference.h"
#include "storage/chunk_cache.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

struct SharedScanFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  Workload workload;

  explicit SharedScanFixture(size_t num_queries = 60, uint64_t seed = 33) {
    GeneratorConfig config;
    config.num_images = 40;
    config.descriptors_per_image = 25;
    config.num_modes = 8;
    config.seed = seed;
    collection = GenerateCollection(config);
    SrTreeChunker chunker(80);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
    Rng rng(seed + 1);
    workload = MakeDatasetQueries(collection, num_queries, &rng);
  }

  MethodContext Context() const {
    MethodContext context;
    context.collection = &collection;
    context.index = &*index;
    context.env = const_cast<MemEnv*>(&env);
    return context;
  }
};

/// Byte-identical comparison of two batches: neighbors (ids and the raw
/// bits of every distance) and the deterministic telemetry counters.
/// `compare_cost` additionally pins the cache-verdict-dependent figures
/// (model clocks, bytes/pages read) — exclude them when one side runs a
/// shared ChunkCache, whose verdicts are schedule-dependent by contract.
void ExpectByteIdentical(const std::vector<MethodResult>& shared,
                         const std::vector<MethodResult>& reference,
                         const std::string& label,
                         bool compare_cost = true) {
  ASSERT_EQ(shared.size(), reference.size()) << label;
  for (size_t q = 0; q < shared.size(); ++q) {
    const QueryTelemetry& a = shared[q].telemetry;
    const QueryTelemetry& b = reference[q].telemetry;
    EXPECT_EQ(a.chunks_read, b.chunks_read) << label << " query " << q;
    EXPECT_EQ(a.descriptors_scanned, b.descriptors_scanned)
        << label << " query " << q;
    EXPECT_EQ(a.candidates_examined, b.candidates_examined)
        << label << " query " << q;
    EXPECT_EQ(a.max_probe_rows, b.max_probe_rows) << label << " query " << q;
    EXPECT_EQ(a.exact, b.exact) << label << " query " << q;
    if (compare_cost) {
      EXPECT_EQ(a.model_micros, b.model_micros) << label << " query " << q;
      EXPECT_EQ(a.model_overlapped_micros, b.model_overlapped_micros)
          << label << " query " << q;
      EXPECT_EQ(a.bytes_read, b.bytes_read) << label << " query " << q;
    }
    ASSERT_EQ(shared[q].neighbors.size(), reference[q].neighbors.size())
        << label << " query " << q;
    for (size_t i = 0; i < shared[q].neighbors.size(); ++i) {
      EXPECT_EQ(shared[q].neighbors[i].id, reference[q].neighbors[i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(std::memcmp(&shared[q].neighbors[i].distance,
                            &reference[q].neighbors[i].distance,
                            sizeof(double)),
                0)
          << label << " query " << q << " rank " << i;
    }
  }
}

// --- The acceptance-bar sweep: chunked, every stop rule x backend x -------
// --- thread count, shared vs the query-major per-query loop. --------------

TEST(SharedScanTest, ChunkedBitIdenticalAcrossStopRulesBackendsThreads) {
  SharedScanFixture fx(/*num_queries=*/60);
  const DiskCostModel model;
  Searcher searcher(&*fx.index, model);
  const auto method = MakeChunkedMethod(&*fx.index);

  // A mid-scan time budget: half the exact model time of the first query,
  // so some queries detach mid-order while others run longer.
  auto probe = searcher.Search(fx.workload.Query(0), 10, StopRule::Exact());
  ASSERT_TRUE(probe.ok());
  const int64_t budget = probe->telemetry.model_micros / 2;
  ASSERT_GT(budget, 0);

  const struct {
    const char* name;
    StopRule rule;
  } rules[] = {
      {"exact", StopRule::Exact()},
      {"epsilon", StopRule::EpsilonApproximate(0.1)},
      {"max-chunks", StopRule::MaxChunks(3)},
      {"time-budget", StopRule::TimeBudget(budget)},
  };

  BackendGuard guard;
  uint64_t skipped = 0;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    for (const auto& r : rules) {
      BatchSearcher query_major(method.get(), 1, /*shared_scan=*/false);
      auto reference = query_major.SearchAll(fx.workload, 10, r.rule);
      ASSERT_TRUE(reference.ok());
      EXPECT_FALSE(reference->shared.enabled);
      // Both paths answer exactly as the independent rank-order reference.
      for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
        const std::string label = std::string(kernels::BackendName(backend)) +
                                  "/" + r.name + " query " + std::to_string(q);
        ExpectMatchesReference(
            reference->results[q],
            RankOrderReference(searcher, model, fx.workload.Query(q), 10,
                               r.rule),
            label);
      }

      for (const size_t threads : {size_t{1}, size_t{3}}) {
        BatchSearcher chunk_major(method.get(), threads);
        auto batch = chunk_major.SearchAll(fx.workload, 10, r.rule);
        ASSERT_TRUE(batch.ok());
        const std::string label =
            std::string(kernels::BackendName(backend)) + "/" + r.name + "/t" +
            std::to_string(threads);
        EXPECT_TRUE(batch->shared.enabled) << label;
        ExpectByteIdentical(batch->results, reference->results, label);
        for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
          ExpectMatchesReference(
              batch->results[q],
              RankOrderReference(searcher, model, fx.workload.Query(q), 10,
                                 r.rule),
              label + " query " + std::to_string(q));
        }
        // Every (chunk, query) pair the queries demanded was served.
        EXPECT_EQ(batch->shared.chunk_attachments,
                  batch->totals.chunks_read)
            << label;
        EXPECT_LE(batch->shared.chunk_fetches,
                  batch->shared.chunk_attachments)
            << label;
        skipped += batch->totals.sweeps_skipped;
      }
      skipped += reference->totals.sweeps_skipped;
    }
  }
  // Chunk-level abandon fired, so the identity above covers skipped sweeps.
  EXPECT_GT(skipped, 0u);
}

// Exact stops fire at different rounds for different queries (mid-scan
// detach): chunks_read must vary across the batch while results stay
// identical, and the schedule must actually coalesce fetches.
// At several threads each worker's slice runs its own schedule; the ledger
// sums the slices'.
TEST(SharedScanTest, ExactStopsDetachQueriesMidSchedule) {
  SharedScanFixture fx(/*num_queries=*/60);
  const auto method = MakeChunkedMethod(&*fx.index);
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
    const std::string label = "t" + std::to_string(threads);
    BatchSearcher chunk_major(method.get(), threads);
    auto batch = chunk_major.SearchAll(fx.workload, 5, StopRule::Exact());
    ASSERT_TRUE(batch.ok()) << label;
    ASSERT_TRUE(batch->shared.enabled) << label;

    uint64_t min_chunks = UINT64_MAX;
    uint64_t max_chunks = 0;
    for (const MethodResult& r : batch->results) {
      min_chunks = std::min(min_chunks, r.telemetry.chunks_read);
      max_chunks = std::max(max_chunks, r.telemetry.chunks_read);
    }
    EXPECT_LT(min_chunks, max_chunks)
        << label << ": expected stop-rule detach at different rounds";
    EXPECT_GT(batch->shared.chunks_coalesced(), 0u) << label;
    EXPECT_GT(batch->shared.rows_scan_shared, 0u) << label;
    EXPECT_EQ(batch->shared.queries, fx.workload.num_queries()) << label;
    EXPECT_EQ(batch->shared.chunk_attachments, batch->totals.chunks_read)
        << label;
    // Histogram totals the schedule's chunk passes.
    uint64_t histogram_total = 0;
    for (size_t b = 0; b < SharedScanStats::kHistogramBuckets; ++b) {
      histogram_total += batch->shared.coscan_histogram[b];
    }
    EXPECT_EQ(histogram_total, batch->shared.chunk_fetches) << label;
  }
}

// A shared ChunkCache: neighbors and chunks_read stay pinned (only cache
// verdicts and hence modeled charges may shift, as between thread counts),
// and each query's verdicts balance.
TEST(SharedScanTest, SharedCacheKeepsAnswersIdentical) {
  SharedScanFixture fx(/*num_queries=*/60);
  const auto plain = MakeChunkedMethod(&*fx.index);
  ChunkCache cache(256, /*num_shards=*/4);
  const auto cached = MakeChunkedMethod(&*fx.index, &cache);

  BatchSearcher query_major(plain.get(), 1, /*shared_scan=*/false);
  auto reference = query_major.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  BatchSearcher chunk_major(cached.get(), 3);
  auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->shared.enabled);
  ExpectByteIdentical(batch->results, reference->results, "cached",
                      /*compare_cost=*/false);
  for (size_t q = 0; q < batch->results.size(); ++q) {
    const QueryTelemetry& t = batch->results[q].telemetry;
    EXPECT_EQ(t.cache_hits + t.cache_misses, t.chunks_read) << "query " << q;
  }
}

// --- Duplicate-query dedup ------------------------------------------------

TEST(SharedScanTest, DuplicateQueriesShareOnePlanAndScan) {
  SharedScanFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);

  // A replayed-trace workload: each distinct query appears three times.
  Workload replay;
  replay.dim = fx.workload.dim;
  for (size_t copy = 0; copy < 3; ++copy) {
    replay.queries.insert(replay.queries.end(), fx.workload.queries.begin(),
                          fx.workload.queries.end());
  }
  ASSERT_EQ(replay.num_queries(), 3 * fx.workload.num_queries());

  BatchSearcher query_major(method.get(), 1, /*shared_scan=*/false);
  auto reference = query_major.SearchAll(replay, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  // A duplicate's leader sits in another thread's slice whenever the
  // distinct queries are cut into more than one slice.
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
    const std::string label = "dedup/t" + std::to_string(threads);
    BatchSearcher chunk_major(method.get(), threads);
    auto batch = chunk_major.SearchAll(replay, 10, StopRule::Exact());
    ASSERT_TRUE(batch.ok()) << label;
    ASSERT_TRUE(batch->shared.enabled) << label;
    EXPECT_EQ(batch->shared.dedup_hits, 2 * fx.workload.num_queries())
        << label;
    EXPECT_EQ(batch->shared.queries, fx.workload.num_queries()) << label;
    // Followers copy the leader's record verbatim — results and telemetry
    // are still per-slot identical to the per-query loop.
    ExpectByteIdentical(batch->results, reference->results, label);
    // The ledger counts the distinct queries' work: the first copy.
    uint64_t chunks_read = 0;
    for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
      chunks_read += batch->results[q].telemetry.chunks_read;
    }
    EXPECT_EQ(batch->shared.chunk_attachments, chunks_read) << label;
    uint64_t histogram_total = 0;
    for (const uint64_t count : batch->shared.coscan_histogram) {
      histogram_total += count;
    }
    EXPECT_EQ(histogram_total, batch->shared.chunk_fetches) << label;
  }
}

// --- The constructor switch ------------------------------------------------

TEST(SharedScanTest, ConstructorSwitchDisablesSharedScan) {
  SharedScanFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher off(method.get(), 4, /*shared_scan=*/false);
  auto batch = off.SearchAll(fx.workload, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->shared.enabled);
}

// --- Every registered method: shared batches must equal query-major -------
// --- batches whether or not the method implements SearchShared. -----------

TEST(SharedScanTest, AllRegisteredMethodsMatchQueryMajorBatches) {
  SharedScanFixture fx(/*num_queries=*/24);
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    auto method = MethodRegistry::Global().Create(info.name, fx.Context());
    ASSERT_TRUE(method.ok()) << info.name << ": " << method.status().message();
    ASSERT_TRUE((*method)->Prepare().ok()) << info.name;

    BatchSearcher query_major(method->get(), 1, /*shared_scan=*/false);
    auto reference =
        query_major.SearchAll(fx.workload, 10, StopRule::Exact());
    ASSERT_TRUE(reference.ok()) << info.name;

    BatchSearcher chunk_major(method->get(), 1);
    auto batch = chunk_major.SearchAll(fx.workload, 10, StopRule::Exact());
    ASSERT_TRUE(batch.ok()) << info.name;
    EXPECT_EQ(batch->shared.enabled, (*method)->SupportsSharedScan())
        << info.name;
    ExpectByteIdentical(batch->results, reference->results, info.name);
  }
}

// pq has one executor, Search, which BatchSearcher runs query-major at
// every thread count. Its three refine shapes — chunk-file rerank,
// collection gather (no index) and ADC-only — each keep per-thread scratch,
// so 1 and 3 threads must answer byte-identically to a serial Search loop.
TEST(SharedScanTest, PqBatchesMatchSerialSearchAcrossRefineShapes) {
  SharedScanFixture fx(/*num_queries=*/24);
  const struct {
    const char* label;
    const char* params;
    bool with_index;
  } cases[] = {
      {"chunk-rerank", "rerank=32,iters=4", true},
      {"gather-rerank", "rerank=32,iters=4", false},
      {"adc-only", "rerank=0,iters=4", true},
  };
  for (const auto& c : cases) {
    MethodContext context = fx.Context();
    if (!c.with_index) context.index = nullptr;
    auto method = MethodRegistry::Global().Create("pq", context, c.params);
    ASSERT_TRUE(method.ok()) << c.label;
    ASSERT_TRUE((*method)->Prepare().ok()) << c.label;
    EXPECT_FALSE((*method)->SupportsSharedScan()) << c.label;

    std::vector<MethodResult> serial;
    for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
      auto r = (*method)->Search(fx.workload.Query(q), 10, StopRule::Exact());
      ASSERT_TRUE(r.ok()) << c.label << " query " << q;
      serial.push_back(std::move(r).value());
    }

    for (const size_t threads : {size_t{1}, size_t{3}}) {
      const std::string label =
          std::string(c.label) + "/t" + std::to_string(threads);
      BatchSearcher batcher(method->get(), threads);
      auto batch = batcher.SearchAll(fx.workload, 10, StopRule::Exact());
      ASSERT_TRUE(batch.ok()) << label;
      EXPECT_FALSE(batch->shared.enabled) << label;
      ExpectByteIdentical(batch->results, serial, label);
    }
  }
}

// --- The fused multi-query kernel vs its single-query reference ----------

TEST(SharedScanTest, FusedKernelsMatchSingleQueryKernelsPerBackend) {
  Rng rng(77);
  const size_t dim = 24;
  const size_t count = 300;  // not a multiple of the fused row block
  const size_t nq = 5;
  std::vector<float> base(count * dim);
  for (float& v : base) v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  // Queries originate as floats (as in the searcher) and are widened to
  // doubles for the fused kernels — exactly the widening the single-query
  // float overloads perform, so both paths see identical values.
  std::vector<std::vector<float>> float_queries(nq);
  std::vector<std::vector<double>> queries(nq);
  std::vector<const double*> query_ptrs(nq);
  std::vector<double> thresholds(nq);
  for (size_t q = 0; q < nq; ++q) {
    float_queries[q].resize(dim);
    for (float& v : float_queries[q]) {
      v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    }
    queries[q].assign(float_queries[q].begin(), float_queries[q].end());
    query_ptrs[q] = queries[q].data();
    // Mixed pruning pressure, +inf included.
    thresholds[q] = q == 0 ? std::numeric_limits<double>::infinity()
                           : 2.0 + static_cast<double>(q);
  }

  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    std::vector<std::vector<double>> fused(nq), single(nq);
    std::vector<double*> outs(nq);
    for (size_t q = 0; q < nq; ++q) {
      fused[q].resize(count);
      single[q].resize(count);
      outs[q] = fused[q].data();
    }

    // Same backend, same row pairing (the fused row block is a multiple of
    // every backend's lane group), so both the completed values AND the
    // abandon pattern must coincide.
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        base.data(), count, dim, query_ptrs.data(), thresholds.data(), nq,
        outs.data());
    for (size_t q = 0; q < nq; ++q) {
      kernels::BatchSquaredDistanceAbandon(
          base.data(), count, dim,
          std::span<const float>(float_queries[q]), thresholds[q],
          single[q].data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(std::memcmp(&fused[q][i], &single[q][i], sizeof(double)), 0)
            << kernels::BackendName(backend) << " abandon q" << q << " row "
            << i;
      }
    }
  }
}

// The fused kernel over a matrix of shapes, per backend: 1-9 queries (so
// every lockstep remainder of the AVX2 dim-24 path occurs, next to full
// quads), row counts around the 4-row group and the 128-row block, dim 24
// and a dim that takes the per-query fallback, and thresholds of +inf, 0,
// exactly a row's completed value, and a mix across the lockstep queries.
// Completed values and the abandon pattern must equal single-query calls
// byte for byte.
TEST(SharedScanTest, FusedKernelMatrixMatchesSingleQueryKernelsPerBackend) {
  const double inf = std::numeric_limits<double>::infinity();
  BackendGuard guard;
  size_t abandoned = 0;
  for (const size_t dim : {size_t{24}, size_t{10}}) {
    Rng rng(91 + dim);
    const size_t max_rows = 598;
    std::vector<float> base(max_rows * dim);
    for (float& v : base) v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    std::vector<std::vector<float>> float_queries(9, std::vector<float>(dim));
    std::vector<std::vector<double>> queries(9);
    std::vector<const double*> query_ptrs;
    for (size_t q = 0; q < 9; ++q) {
      for (float& v : float_queries[q]) {
        v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      }
      queries[q].assign(float_queries[q].begin(), float_queries[q].end());
      query_ptrs.push_back(queries[q].data());
    }
    for (const kernels::Backend backend : SupportedBackends()) {
      kernels::SetBackendForTesting(backend);
      for (const size_t count : {1u, 3u, 4u, 5u, 127u, 128u, 129u, 301u,
                                 598u}) {
        // Each query's smallest completed value: a threshold exactly equal
        // to a row's value, which most other rows' partial sums exceed.
        std::vector<double> row_value(9);
        for (size_t q = 0; q < 9; ++q) {
          std::vector<double> full(count);
          kernels::BatchSquaredDistance(base.data(), count, dim,
                                        std::span<const float>(float_queries[q]),
                                        full.data());
          row_value[q] = *std::min_element(full.begin(), full.end());
        }
        for (int scheme = 0; scheme < 4; ++scheme) {
          std::vector<double> thresholds(9);
          for (size_t q = 0; q < 9; ++q) {
            const int pick = scheme < 3 ? scheme : static_cast<int>(q % 3);
            thresholds[q] = pick == 0 ? inf : pick == 1 ? 0.0 : row_value[q];
          }
          for (size_t nq = 1; nq <= 9; ++nq) {
            const std::string label =
                std::string(kernels::BackendName(backend)) + " dim " +
                std::to_string(dim) + " rows " + std::to_string(count) +
                " scheme " + std::to_string(scheme) + " queries " +
                std::to_string(nq);
            std::vector<std::vector<double>> fused(nq,
                                                   std::vector<double>(count));
            std::vector<double*> outs;
            for (auto& out : fused) outs.push_back(out.data());
            kernels::MultiQueryBatchSquaredDistanceAbandon(
                base.data(), count, dim, query_ptrs.data(), thresholds.data(),
                nq, outs.data());
            for (size_t q = 0; q < nq; ++q) {
              std::vector<double> single(count);
              kernels::BatchSquaredDistanceAbandon(
                  base.data(), count, dim,
                  std::span<const float>(float_queries[q]), thresholds[q],
                  single.data());
              ASSERT_EQ(std::memcmp(fused[q].data(), single.data(),
                                    count * sizeof(double)),
                        0)
                  << label << " query " << q;
              abandoned += static_cast<size_t>(
                  std::count(single.begin(), single.end(), kernels::kAbandoned));
            }
          }
        }
      }
    }
  }
  EXPECT_GT(abandoned, 0u);
}

// Direct Searcher::SearchShared argument validation.
TEST(SharedScanTest, SearchSharedValidatesArguments) {
  SharedScanFixture fx(/*num_queries=*/4);
  Searcher searcher(&*fx.index, DiskCostModel());
  std::vector<std::span<const float>> queries;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    queries.push_back(fx.workload.Query(q));
  }
  auto bad_k = searcher.SearchShared(queries, 0, StopRule::Exact());
  EXPECT_TRUE(bad_k.status().IsInvalidArgument());

  const std::vector<float> short_query(3, 0.0f);
  std::vector<std::span<const float>> mixed = queries;
  mixed.push_back(short_query);
  auto bad_dim = searcher.SearchShared(mixed, 5, StopRule::Exact());
  EXPECT_TRUE(bad_dim.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qvt

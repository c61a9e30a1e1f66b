// M1 (DESIGN.md): google-benchmark microbenchmarks of the hot kernels —
// the 24-d Euclidean distance, a full chunk scan with result-set updates,
// centroid ranking over a chunk index, and k-NN heap insertion — plus the
// batched scan kernels of geometry/kernels.h per backend, with and without
// early abandon, the fused multi-query kernel in its two roles (a chunk
// swept for its co-scanning queries and the batched plan pass), the
// float bound filter's sweep under a finite limit against the fused kernel
// it replaces there, and the float-first MaxChunks plan of an image request.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "geometry/kernels.h"
#include "geometry/vec.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

Collection BenchCollection(size_t images) {
  GeneratorConfig config;
  config.num_images = images;
  config.descriptors_per_image = 100;
  config.num_modes = std::max<size_t>(4, images / 10);
  config.seed = 99;
  return GenerateCollection(config);
}

void BM_Distance24d(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> a(kDescriptorDim), b(kDescriptorDim);
  for (auto& x : a) x = static_cast<float>(rng.NextDouble());
  for (auto& x : b) x = static_cast<float>(rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec::SquaredDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Distance24d);

void BM_ChunkScan(benchmark::State& state) {
  const Collection c = BenchCollection(20);
  const size_t chunk_size = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<float> query(kDescriptorDim);
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(0, 100));

  for (auto _ : state) {
    KnnResultSet result(30);
    const size_t limit = std::min(chunk_size, c.size());
    for (size_t i = 0; i < limit; ++i) {
      result.Insert(c.Id(i), vec::Distance(c.Vector(i), query));
    }
    benchmark::DoNotOptimize(result.KthDistance());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::min(chunk_size, c.size()));
}
BENCHMARK(BM_ChunkScan)->Arg(947)->Arg(1711)->Arg(2486);

void BM_ResultSetInsert(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> distances(4096);
  for (auto& d : distances) d = rng.NextDouble();
  size_t i = 0;
  KnnResultSet result(30);
  for (auto _ : state) {
    result.Insert(static_cast<DescriptorId>(i), distances[i % 4096]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResultSetInsert);

void BM_CentroidRanking(benchmark::State& state) {
  const size_t num_chunks = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::vector<float>> centroids(num_chunks);
  for (auto& c : centroids) {
    c.resize(kDescriptorDim);
    for (auto& x : c) x = static_cast<float>(rng.UniformDouble(0, 100));
  }
  std::vector<float> query(kDescriptorDim, 50.0f);
  std::vector<std::pair<double, uint32_t>> ranking(num_chunks);

  for (auto _ : state) {
    for (size_t i = 0; i < num_chunks; ++i) {
      ranking[i] = {vec::SquaredDistance(centroids[i], query),
                    static_cast<uint32_t>(i)};
    }
    std::sort(ranking.begin(), ranking.end());
    benchmark::DoNotOptimize(ranking.front().second);
  }
  state.SetItemsProcessed(state.iterations() * num_chunks);
}
BENCHMARK(BM_CentroidRanking)->Arg(200)->Arg(2000);

// ---------------------------------------------------------------------------
// Batched scan kernels (geometry/kernels.h). Arg 0 selects the backend so a
// single binary reports the scalar baseline next to each SIMD path; arg 1
// (where present) toggles early abandon.
// ---------------------------------------------------------------------------

kernels::Backend BackendArg(benchmark::State& state) {
  return static_cast<kernels::Backend>(state.range(0));
}

/// Skips backends the host cannot run and pins the requested one otherwise.
/// Returns false when the benchmark should bail out.
bool PinBackend(benchmark::State& state) {
  const kernels::Backend b = BackendArg(state);
  if (!kernels::BackendSupported(b)) {
    state.SkipWithError("backend not supported on this host");
    return false;
  }
  kernels::SetBackendForTesting(b);
  state.SetLabel(kernels::BackendName(b));
  return true;
}

/// The seed scalar loop the kernels replace: vec::SquaredDistance per row
/// over a whole 24-d chunk. The acceptance baseline for the >= 2x speedup.
void BM_ChunkBatch24d_SeedScalarLoop(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const Collection c = BenchCollection(40);
  Rng rng(6);
  std::vector<float> query(kDescriptorDim);
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<double> out(count);

  const size_t limit = std::min(count, c.size());
  for (auto _ : state) {
    for (size_t i = 0; i < limit; ++i) {
      out[i] = vec::SquaredDistance(c.Vector(i), query);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * limit);
}
BENCHMARK(BM_ChunkBatch24d_SeedScalarLoop)->Arg(2486);

/// The batched kernel over the same rows, per backend.
void BM_ChunkBatch24d_Kernel(benchmark::State& state) {
  if (!PinBackend(state)) return;
  const size_t count = 2486;
  const Collection c = BenchCollection(40);
  Rng rng(6);
  std::vector<float> query(kDescriptorDim);
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<double> out(count);

  const size_t limit = std::min(count, c.size());
  for (auto _ : state) {
    kernels::BatchSquaredDistance(c.RawData().data(), limit, kDescriptorDim,
                                  query, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * limit);
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_ChunkBatch24d_Kernel)
    ->Arg(static_cast<int>(kernels::Backend::kScalar))
    ->Arg(static_cast<int>(kernels::Backend::kSse2))
    ->Arg(static_cast<int>(kernels::Backend::kAvx2));

/// Full chunk scan through the abandon kernel + result-set updates, the
/// Searcher::Search inner loop. Arg 1 toggles abandon (threshold from the
/// running k-th distance vs +inf).
void BM_ChunkScanBatch(benchmark::State& state) {
  if (!PinBackend(state)) return;
  const bool abandon = state.range(1) != 0;
  const size_t count = 2486;
  const Collection c = BenchCollection(40);
  Rng rng(7);
  std::vector<float> query(kDescriptorDim);
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<double> out(256);

  const size_t limit = std::min(count, c.size());
  for (auto _ : state) {
    KnnResultSet result(30);
    for (size_t b = 0; b < limit; b += 256) {
      const size_t bn = std::min<size_t>(256, limit - b);
      const double threshold =
          abandon ? kernels::AbandonThreshold(result.KthDistance())
                  : std::numeric_limits<double>::infinity();
      kernels::BatchSquaredDistanceAbandon(
          c.RawData().data() + b * kDescriptorDim, bn, kDescriptorDim, query,
          threshold, out.data());
      for (size_t i = 0; i < bn; ++i) {
        if (out[i] == kernels::kAbandoned) continue;
        result.Insert(c.Id(b + i), std::sqrt(out[i]));
      }
    }
    benchmark::DoNotOptimize(result.KthDistance());
  }
  state.SetItemsProcessed(state.iterations() * limit);
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_ChunkScanBatch)
    ->ArgsProduct({{static_cast<int>(kernels::Backend::kScalar),
                    static_cast<int>(kernels::Backend::kSse2),
                    static_cast<int>(kernels::Backend::kAvx2)},
                   {0, 1}});

/// Random 24-d rows and widened float queries for the fused kernel rows.
struct FusedInputs {
  std::vector<float> rows;
  std::vector<std::vector<double>> queries;
  std::vector<std::vector<double>> outs;
  std::vector<const double*> query_ptrs;
  std::vector<double*> out_ptrs;
  std::vector<double> thresholds;

  FusedInputs(size_t count, size_t num_queries, uint64_t seed)
      : rows(count * kDescriptorDim),
        queries(num_queries, std::vector<double>(kDescriptorDim)),
        outs(num_queries, std::vector<double>(count)),
        thresholds(num_queries, std::numeric_limits<double>::infinity()) {
    Rng rng(seed);
    for (auto& x : rows) x = static_cast<float>(rng.UniformDouble(0, 100));
    for (size_t q = 0; q < num_queries; ++q) {
      for (auto& x : queries[q]) {
        x = static_cast<float>(rng.UniformDouble(0, 100));
      }
      query_ptrs.push_back(queries[q].data());
      out_ptrs.push_back(outs[q].data());
    }
  }

  void Run(size_t count) {
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        rows.data(), count, kDescriptorDim, query_ptrs.data(),
        thresholds.data(), query_ptrs.size(), out_ptrs.data());
  }
};

/// One chunk of the canonical index (250 rows) swept for Q co-scanning
/// queries, no pruning: Arg 0 = backend, Arg 1 = Q. items_per_second counts
/// rows per query (rows x Q), so Q = 1 is the single-query kernel's rate
/// and a larger Q shows what sharing the widen and transpose buys.
/// image_approx requests coalesce about 9.45 queries per fetched chunk.
void BM_FusedChunkSweep(benchmark::State& state) {
  if (!PinBackend(state)) return;
  const size_t count = 250;
  const size_t num_queries = static_cast<size_t>(state.range(1));
  FusedInputs in(count, num_queries, 8);
  for (auto _ : state) {
    in.Run(count);
    benchmark::DoNotOptimize(in.outs.front().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * count * num_queries);
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_FusedChunkSweep)
    ->ArgsProduct({{static_cast<int>(kernels::Backend::kScalar),
                    static_cast<int>(kernels::Backend::kSse2),
                    static_cast<int>(kernels::Backend::kAvx2)},
                   {1, 4, 9}});

/// One 250-row chunk swept for Q queries under finite limits taken from a
/// real k-th. The chunk is the 250 rows of a generated collection nearest
/// an anchor row (a tight leaf, as the SR chunker forms), the queries are
/// the rows ranked just past it, so the chunk is one they would read, and
/// each limit is kernels::AbandonThreshold of the query's true 10th nearest
/// distance over the collection. Arg 0 = backend, Arg 1 = Q, Arg 2 = path:
///  - 0, the sweep under a finite limit: the float bound filter, then the
///    exact kernel over its survivors (counter `survivors` per query);
///  - 1, the fused double kernel under the same limits, the path the
///    filter replaces.
/// items_per_second counts rows per query (250 x Q), as BM_FusedChunkSweep.
void BM_FilteredChunkSweep(benchmark::State& state) {
  if (!PinBackend(state)) return;
  constexpr size_t kCount = 250;
  constexpr size_t kDim = kDescriptorDim;
  const size_t num_queries = static_cast<size_t>(state.range(1));
  const bool filtered = state.range(2) == 0;
  const Collection c = BenchCollection(20);
  std::vector<double> all(c.size());
  kernels::BatchSquaredDistance(c.Vector(0).data(), c.size(), kDim,
                                c.Vector(1000), all.data());
  std::vector<size_t> by_distance(c.size());
  std::iota(by_distance.begin(), by_distance.end(), size_t{0});
  std::sort(by_distance.begin(), by_distance.end(),
            [&](size_t a, size_t b) { return all[a] < all[b]; });
  std::vector<float> rows;
  for (size_t r = 0; r < kCount; ++r) {
    const auto v = c.Vector(by_distance[r]);
    rows.insert(rows.end(), v.begin(), v.end());
  }
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<double>> wide;
  std::vector<double> thresholds;
  for (size_t q = 0; q < num_queries; ++q) {
    const auto v = c.Vector(by_distance[kCount + 3 * q]);
    queries.emplace_back(v.begin(), v.end());
    wide.emplace_back(v.begin(), v.end());
    kernels::BatchSquaredDistance(c.Vector(0).data(), c.size(), kDim, v,
                                  all.data());
    std::nth_element(all.begin(), all.begin() + 10, all.end());
    thresholds.push_back(kernels::AbandonThreshold(std::sqrt(all[10])));
  }
  std::vector<const double*> query_ptrs;
  std::vector<std::vector<double>> outs(num_queries,
                                        std::vector<double>(kCount));
  std::vector<double*> out_ptrs;
  for (size_t q = 0; q < num_queries; ++q) {
    query_ptrs.push_back(wide[q].data());
    out_ptrs.push_back(outs[q].data());
  }
  std::vector<uint32_t> survivors(kCount);
  size_t kept_total = 0;
  for (auto _ : state) {
    if (filtered) {
      for (size_t q = 0; q < num_queries; ++q) {
        const size_t kept = kernels::FloatBoundFilter(
            rows.data(), kCount, kDim, queries[q], thresholds[q],
            survivors.data());
        kernels::GatherSquaredDistance(rows.data(), kDim,
                                       {survivors.data(), kept}, wide[q],
                                       outs[q].data());
        kept_total += kept;
      }
    } else {
      kernels::MultiQueryBatchSquaredDistanceAbandon(
          rows.data(), kCount, kDim, query_ptrs.data(), thresholds.data(),
          num_queries, out_ptrs.data());
    }
    benchmark::DoNotOptimize(outs.front().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCount * num_queries);
  if (filtered) {
    state.counters["survivors"] = static_cast<double>(kept_total) /
                                  static_cast<double>(state.iterations() *
                                                      num_queries);
  }
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_FilteredChunkSweep)
    ->ArgsProduct({{static_cast<int>(kernels::Backend::kScalar),
                    static_cast<int>(kernels::Backend::kSse2),
                    static_cast<int>(kernels::Backend::kAvx2)},
                   {1, 4, 8, 9, 16},
                   {0, 1}});

/// The batched plan pass of one image request: 598 x 24 centroids (the
/// canonical index) against Q = 75 queries in one fused call, per backend.
/// items_per_second counts rows per query (598 x 75).
void BM_FusedPlanPass(benchmark::State& state) {
  if (!PinBackend(state)) return;
  const size_t count = 598;
  const size_t num_queries = 75;
  FusedInputs in(count, num_queries, 9);
  for (auto _ : state) {
    in.Run(count);
    benchmark::DoNotOptimize(in.outs.front().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * count * num_queries);
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_FusedPlanPass)
    ->Arg(static_cast<int>(kernels::Backend::kScalar))
    ->Arg(static_cast<int>(kernels::Backend::kSse2))
    ->Arg(static_cast<int>(kernels::Backend::kAvx2));

/// A MaxChunks plan's inputs as an image request meets them: a generated
/// collection (200 images x 75 descriptors), chunked by the SR-tree into
/// about as many chunks as the canonical index holds (598), and the 75
/// descriptors of image 0 as the queries.
struct PlanInputs {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  std::vector<std::span<const float>> queries;

  PlanInputs() {
    GeneratorConfig config;
    config.num_images = 200;
    config.descriptors_per_image = 75;
    config.num_modes = 20;
    config.seed = 11;
    collection = GenerateCollection(config);
    auto chunking = SrTreeChunker(25).FormChunks(collection);
    QVT_CHECK_OK(chunking.status());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("plan"));
    QVT_CHECK_OK(built.status());
    index.emplace(std::move(built).value());
    for (size_t p = 0; p < collection.size() && queries.size() < 75; ++p) {
      if (collection.Image(p) == collection.Image(0)) {
        queries.push_back(collection.Vector(p));
      }
    }
  }
};

/// The whole MaxChunks(8) plan of one image request, per backend: the
/// float-first pass Searcher::RankChunksBatch runs (fp32 bounds of every
/// centroid, exact distances for the chunks it can select, the top 8 and
/// the rank order around them) for the request's queries. Set against
/// BM_FusedPlanPass, the double pass alone that the plan ran before.
/// items_per_second counts centroids per query.
void BM_FloatFirstPlan(benchmark::State& state) {
  if (!PinBackend(state)) return;
  static const PlanInputs* const in = new PlanInputs();
  const Searcher searcher(&*in->index, DiskCostModel());
  const size_t nq = in->queries.size();
  std::vector<SearchScratch> scratches(nq);
  std::vector<SearchScratch*> ptrs;
  for (SearchScratch& s : scratches) ptrs.push_back(&s);
  for (auto _ : state) {
    searcher.RankChunksBatch(in->queries, ptrs, StopRule::MaxChunks(8));
    benchmark::DoNotOptimize(scratches.front().rank_order.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in->index->num_chunks() * nq);
  state.counters["chunks"] = static_cast<double>(in->index->num_chunks());
  state.counters["queries"] = static_cast<double>(nq);
  kernels::ResetBackendForTesting();
}
BENCHMARK(BM_FloatFirstPlan)
    ->Arg(static_cast<int>(kernels::Backend::kScalar))
    ->Arg(static_cast<int>(kernels::Backend::kSse2))
    ->Arg(static_cast<int>(kernels::Backend::kAvx2));

}  // namespace
}  // namespace qvt

BENCHMARK_MAIN();

// Tail-latency experiment: delivered quality vs the per-query latency
// *distribution* (p50/p95/p99) for plain k-means chunking, balance-
// constrained k-means, and k-means + post-hoc rebalancing, over a
// deliberately skewed collection (~half of all descriptors in one dense
// mode). Plain k-means hands the heavy mode oversized chunks; every query
// ranked into one pays its scan and transfer alone, which the mean hides
// and the p99 exposes. The balanced builds cap chunk populations, trading
// a little mean effort for a bounded worst probe.
//
// Checks (hard QVT_CHECKs, run in CI):
//  * every chunking is bit-identical at build thread counts {1, 2, 4, 8};
//  * the balanced index respects its population bound (Validate(bound));
//  * at an equal recall target, balanced chunking's modeled p99 and
//    p99/p50 tail ratio do not exceed plain k-means's.
//
// Wall-clock percentiles are recorded alongside but never asserted on (the
// CI container is 1-2 cores and noisy); the deterministic cost model is
// the assertion clock, exactly as in the paper-figure benches.
//
// Flags: --tiny (64 images), --images N (default 400), --json PATH
// (default BENCH_tail.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/figures.h"
#include "bench_util/runner.h"
#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/rebalance.h"
#include "core/chunk_index.h"
#include "core/exact_scan.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace qvt {
namespace {

uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashChunks(const ChunkingResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& chunk : result.chunks) {
    const size_t n = chunk.size();
    h = HashBytes(h, &n, sizeof(n));
    h = HashBytes(h, chunk.data(), chunk.size() * sizeof(size_t));
  }
  h = HashBytes(h, result.outliers.data(),
                result.outliers.size() * sizeof(size_t));
  return h;
}

/// Mode-uniform query workload: queries cycle over the mixture modes with a
/// small jitter, so the heavy mode is queried at 1/num_modes frequency —
/// rare enough to live in the tail, not the median. (Dataset queries would
/// put ~half the queries in the heavy mode and drag it into the p50.)
Workload MakeModeQueries(const GeneratorConfig& config, size_t count) {
  const auto modes = GeneratorModeCenters(config);
  Rng rng(config.seed ^ 0x7a11ULL);
  Workload workload;
  workload.name = "mode-uniform";
  workload.dim = config.dim;
  workload.queries.reserve(count * config.dim);
  for (size_t q = 0; q < count; ++q) {
    const auto& mode = modes[q % modes.size()];
    for (size_t d = 0; d < config.dim; ++d) {
      workload.queries.push_back(static_cast<float>(
          mode[d] + rng.Gaussian(0.0, config.image_offset_stddev)));
    }
  }
  return workload;
}

/// Re-runs `form` at build thread counts {1, 2, 4, 8} and checks all
/// chunkings are bit-identical — the determinism contract every index
/// build in this repo honors.
template <typename FormFn>
ChunkingResult FormDeterministic(const char* label, FormFn&& form) {
  const std::vector<size_t> thread_counts{1, 2, 4, 8};
  ChunkingResult first;
  uint64_t first_hash = 0;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    SetBuildThreads(thread_counts[i]);
    ChunkingResult chunks = form();
    const uint64_t h = HashChunks(chunks);
    if (i == 0) {
      first = std::move(chunks);
      first_hash = h;
    } else {
      QVT_CHECK(h == first_hash)
          << label << " chunking differs at " << thread_counts[i]
          << " build threads";
    }
  }
  SetBuildThreads(0);
  std::cout << label << ": bit-identical at {1,2,4,8} build threads\n";
  return first;
}

/// The first sweep point reaching `recall` (points are in budget order with
/// exact last, so recall is non-decreasing); falls back to the last point.
const TailPoint& PointAtRecall(const TailSeries& series, double recall) {
  for (const TailPoint& p : series.points) {
    if (p.report.mean_final_precision >= recall) return p;
  }
  return series.points.back();
}

int Main(int argc, char** argv) {
  GeneratorConfig gen;
  gen.num_images = 400;
  gen.descriptors_per_image = 100;
  gen.num_modes = 40;
  gen.heavy_mode_weight = 0.5;
  gen.outlier_fraction = 0.0;  // isolate the chunk-imbalance effect
  gen.seed = 20260809;
  std::string json_path = "BENCH_tail.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) gen.num_images = 64;
    if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      gen.num_images = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  const Collection collection = GenerateCollection(gen);
  const size_t n = collection.size();
  const size_t k_clusters = std::max<size_t>(8, n / 1000);
  std::cout << "### tail latency vs chunk balance (" << n << " descriptors, "
            << gen.num_modes << " modes, heavy mode weight "
            << gen.heavy_mode_weight << ", " << k_clusters << " clusters)\n";

  KMeansConfig km_config;
  km_config.num_clusters = k_clusters;
  km_config.max_iterations = 8;

  // --- Form the three chunkings, each deterministic across threads. -------
  const ChunkingResult km_chunks = FormDeterministic("kmeans", [&] {
    KMeansChunker chunker(km_config);
    auto chunks = chunker.FormChunks(collection);
    QVT_CHECK_OK(chunks.status());
    return std::move(chunks).value();
  });

  BalancedKMeansConfig bkm_config;
  bkm_config.base = km_config;
  size_t bound = 0;
  const ChunkingResult bkm_chunks = FormDeterministic("balanced-kmeans", [&] {
    BalancedKMeansChunker chunker(bkm_config);
    auto chunks = chunker.FormChunks(collection);
    QVT_CHECK_OK(chunks.status());
    bound = chunker.last_bound();
    return std::move(chunks).value();
  });

  RebalanceOptions rebalance_options;
  rebalance_options.max_population = bound;
  rebalance_options.min_population = bound / 4;
  const ChunkingResult rb_chunks =
      FormDeterministic("kmeans+rebalance", [&] {
        KMeansChunker chunker(km_config);
        auto chunks = chunker.FormChunks(collection);
        QVT_CHECK_OK(chunks.status());
        auto rebalanced = RebalanceChunking(std::move(chunks).value(),
                                           collection, rebalance_options);
        QVT_CHECK_OK(rebalanced.status());
        return std::move(rebalanced).value();
      });

  QVT_CHECK(bkm_chunks.Populations().max <= bound)
      << "balanced k-means violated its population bound";
  QVT_CHECK(rb_chunks.Populations().max <= bound)
      << "rebalancing violated its population bound";

  // --- Build indexes and sweep. -------------------------------------------
  struct Variant {
    std::string label;
    const ChunkingResult* chunks;
    size_t bound;
  };
  const std::vector<Variant> variants{
      {"kmeans", &km_chunks, 0},
      {"balanced-kmeans", &bkm_chunks, bound},
      {"kmeans+rebalance", &rb_chunks, bound},
  };

  const size_t k = 10;
  const Workload workload = MakeModeQueries(gen, 120);
  const GroundTruth truth = GroundTruth::Compute(collection, workload, k);
  const std::vector<size_t> budgets{1, 2, 4, 8, 16, 0};
  const DiskCostModel cost_model;

  std::vector<TailSeries> series;
  for (const Variant& v : variants) {
    const ChunkIndexPaths paths =
        ChunkIndexPaths::ForBase("/tmp/qvt_tail_" + v.label);
    auto index =
        ChunkIndex::Build(collection, *v.chunks, Env::Posix(), paths);
    QVT_CHECK_OK(index.status()) << "index build failed for " << v.label;
    if (v.bound > 0) {
      QVT_CHECK_OK(index->Validate(static_cast<uint32_t>(v.bound)))
          << v.label << " index violates its population bound";
    }
    std::cout << v.label << ": " << index->Describe() << "\n";

    MethodContext context;
    context.index = &*index;
    context.cost_model = cost_model;
    auto method = MethodRegistry::Global().Create("chunked", context);
    QVT_CHECK_OK(method.status());
    QVT_CHECK_OK((*method)->Prepare());
    auto points = RunTailSweep(**method, workload, &truth, k, budgets,
                               /*num_threads=*/1);
    QVT_CHECK_OK(points.status()) << "tail sweep failed for " << v.label;

    TailSeries s;
    s.label = v.label;
    s.populations = index->populations();
    s.population_bound = v.bound;
    s.points = std::move(points).value();
    series.push_back(std::move(s));
  }

  PrintTailTable(std::cout, "quality vs tail latency (model clock)", series);

  // --- The acceptance checks. ---------------------------------------------
  // (1) Chunk-for-chunk, the bounded worst probe keeps the balanced p99 at
  // or below plain k-means's: at any kMaxChunks budget every query reads
  // the same number of chunks, and no balanced chunk can be a giant.
  for (size_t p = 0; p < budgets.size(); ++p) {
    if (budgets[p] == 0) continue;  // exact reads different chunk counts
    QVT_CHECK(series[1].points[p].report.model.p99 <=
              series[0].points[p].report.model.p99)
        << "balanced p99 exceeds k-means p99 at budget " << budgets[p];
  }
  // (2) At an equal delivered-recall target, the p99/p50 tail ratio — the
  // spread a latency SLO cares about — shrinks. (Absolute p99 at equal
  // recall can go either way: seeks dominate the model, so reaching the
  // target with more-but-smaller chunks costs more mean time; what the
  // balance bound buys is predictability, not mean speed.)
  const double recall_target = 0.95;
  const TailPoint& km_at = PointAtRecall(series[0], recall_target);
  const TailPoint& bkm_at = PointAtRecall(series[1], recall_target);
  std::printf(
      "at recall >= %.2f: kmeans p99 %lld us (tail %.2fx, budget %zu), "
      "balanced p99 %lld us (tail %.2fx, budget %zu)\n",
      recall_target, static_cast<long long>(km_at.report.model.p99),
      km_at.report.model.TailRatio(), km_at.max_chunks,
      static_cast<long long>(bkm_at.report.model.p99),
      bkm_at.report.model.TailRatio(), bkm_at.max_chunks);
  QVT_CHECK(bkm_at.report.model.TailRatio() <=
            km_at.report.model.TailRatio() + 1e-9)
      << "balanced chunking did not reduce the p99/p50 tail ratio";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  WriteTailJson(json, series);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) { return qvt::Main(argc, argv); }

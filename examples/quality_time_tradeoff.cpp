// The paper's central trade-off, as an "anytime search" demo: sweep the
// time-budget stop rule (§5.7 lesson 2: elapsed time is the natural stop
// rule) and watch precision@30 climb with the budget — most of the top 30
// arrives in the first fraction of a second of modeled time, while the
// exact guarantee costs an order of magnitude more (§5.7 lesson 1).
//
//   ./build/examples/quality_time_tradeoff

#include <cstdio>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "util/random.h"

int main() {
  using namespace qvt;

  GeneratorConfig generator;
  generator.num_images = 400;
  generator.descriptors_per_image = 100;
  generator.num_modes = 40;
  const Collection collection = GenerateCollection(generator);

  SrTreeChunker chunker(1000);
  auto chunking = chunker.FormChunks(collection);
  if (!chunking.ok()) return 1;
  auto index = ChunkIndex::Build(collection, *chunking, Env::Posix(),
                                 ChunkIndexPaths::ForBase("/tmp/qtt"));
  if (!index.ok()) return 1;

  // 50 dataset queries with exact ground truth.
  Rng rng(11);
  const Workload queries = MakeDatasetQueries(collection, 50, &rng);
  const size_t k = 30;
  const GroundTruth truth = GroundTruth::Compute(collection, queries, k);

  Searcher searcher(&*index, DiskCostModel());

  std::printf("%-14s %-12s %-12s\n", "budget (ms)", "precision@30",
              "chunks read");
  for (int64_t budget_ms : {10, 25, 50, 100, 200, 400, 800, 1600}) {
    double precision = 0.0, chunks = 0.0;
    for (size_t q = 0; q < queries.num_queries(); ++q) {
      auto result = searcher.Search(queries.Query(q), k,
                                    StopRule::TimeBudget(budget_ms * 1000));
      if (!result.ok()) return 1;
      precision += PrecisionAtK(result->neighbors, truth.TruthFor(q), k);
      chunks += static_cast<double>(result->telemetry.chunks_read);
    }
    precision /= static_cast<double>(queries.num_queries());
    chunks /= static_cast<double>(queries.num_queries());
    std::printf("%-14lld %-12.3f %-12.1f\n",
                static_cast<long long>(budget_ms), precision, chunks);
  }

  // The exact baseline.
  double exact_seconds = 0.0;
  for (size_t q = 0; q < queries.num_queries(); ++q) {
    auto result = searcher.Search(queries.Query(q), k, StopRule::Exact());
    if (!result.ok()) return 1;
    exact_seconds += result->telemetry.model_micros * 1e-6;
  }
  std::printf("\nexact search (precision 1.000 guaranteed): %.2f s modeled "
              "per query on average\n",
              exact_seconds / queries.num_queries());
  return 0;
}

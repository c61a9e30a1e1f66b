// Ablation A4: buffering effects. The paper runs its workloads round-robin
// across the chunk indexes precisely "to eliminate buffering effects"
// (§5.4). Here we turn the buffer back on: an LRU chunk cache of varying
// size in front of the SR/SMALL index, with the DQ workload run twice (cold
// pass, then warm pass). Re-running the same queries against a warm cache
// collapses I/O charges toward pure CPU — the effect the paper's
// methodology controls away.

#include <iostream>

#include "bench/bench_common.h"
#include "storage/chunk_cache.h"
#include "util/table.h"

namespace qvt {
namespace {

void Run(const ExperimentConfig& config) {
  const auto suite = bench::LoadSuite(config);
  bench::PrintBanner("Ablation: LRU chunk cache (buffering effects)", *suite);

  const IndexVariant& v = suite->variant(Strategy::kSrTree, SizeClass::kSmall);
  const Workload& workload = suite->dq();
  const uint64_t index_pages = [&] {
    uint64_t pages = 0;
    for (const ChunkLocation& loc : v.index.locations()) {
      pages += loc.num_pages;
    }
    return pages;
  }();

  TablePrinter table({"cache (pages)", "share of index", "pass",
                      "hit rate", "mean model time (s)"});
  for (double share : {0.05, 0.25, 1.0}) {
    const uint64_t capacity =
        std::max<uint64_t>(1, static_cast<uint64_t>(share * index_pages));
    ChunkCache cache(capacity);
    Searcher searcher(&v.index, DiskCostModel(config.cost_model), &cache);

    for (const char* pass : {"cold", "warm"}) {
      const ChunkCacheStats before = cache.Stats();
      const uint64_t hits_before = before.hits;
      const uint64_t misses_before = before.misses;
      double seconds = 0.0;
      for (size_t q = 0; q < workload.num_queries(); ++q) {
        auto result =
            searcher.Search(workload.Query(q), config.k, StopRule::Exact());
        QVT_CHECK_OK(result.status());
        seconds += static_cast<double>(result->telemetry.model_micros) * 1e-6;
      }
      const ChunkCacheStats after = cache.Stats();
      const uint64_t hits = after.hits - hits_before;
      const uint64_t misses = after.misses - misses_before;
      table.AddRow({std::to_string(capacity),
                    TablePrinter::Num(100.0 * share, 0) + "%", pass,
                    TablePrinter::Num(
                        100.0 * static_cast<double>(hits) /
                            static_cast<double>(std::max<uint64_t>(
                                1, hits + misses)),
                        1) + "%",
                    Seconds(seconds /
                            static_cast<double>(workload.num_queries()))});
    }
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) {
  qvt::Run(qvt::bench::ParseConfig(argc, argv));
  return 0;
}

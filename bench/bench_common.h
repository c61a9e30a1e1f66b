#ifndef QVT_BENCH_BENCH_COMMON_H_
#define QVT_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/experiment_config.h"
#include "bench_util/figures.h"
#include "bench_util/index_suite.h"
#include "bench_util/runner.h"
#include "core/searcher.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/table.h"

namespace qvt {
namespace bench {

/// The value of `--build-threads`: a non-negative integer, 0 meaning the
/// hardware default. Anything else is a usage error naming the flag
/// ("error: --build-threads: must be a non-negative integer: abc"), exit 2,
/// as in qvt_tool.
inline size_t ParseBuildThreads(const char* text) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end) {
    std::fprintf(stderr,
                 "error: --build-threads: must be a non-negative integer: "
                 "%s\n",
                 text);
    std::exit(2);
  }
  return value;
}

/// Shared configuration for the paper-reproduction benches.
///
/// Defaults to the full scaled experiment (~200k descriptors; the first run
/// builds a disk cache under qvt_cache/ in the build tree that every bench
/// reuses). `--tiny` switches to the smoke-test configuration.
inline ExperimentConfig ParseConfig(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
    if (std::strcmp(argv[i], "--build-threads") == 0) {
      // Artifacts are bit-identical at every thread count (see
      // util/parallel_for.h), so this only changes build wall time.
      SetBuildThreads(ParseBuildThreads(i + 1 < argc ? argv[i + 1] : ""));
    }
  }
  return tiny ? ExperimentConfig::Tiny() : ExperimentConfig::Default();
}

/// Loads (building if necessary) the experiment suite, aborting on failure.
inline std::unique_ptr<IndexSuite> LoadSuite(const ExperimentConfig& config) {
  auto suite = IndexSuite::BuildOrLoad(config, Env::Posix());
  QVT_CHECK_OK(suite.status()) << "failed to build/load the index suite";
  return std::move(suite).value();
}

/// Prints the standard bench banner with the effective scale.
inline void PrintBanner(const char* title, const IndexSuite& suite) {
  std::cout << "### " << title << "\n"
            << "collection: " << suite.collection().size()
            << " descriptors from " << suite.config().generator.num_images
            << " synthetic images; " << suite.config().queries_per_workload
            << " queries per workload; k = " << suite.config().k << "\n";
}

/// Runs a workload to conclusion on all six chunk indexes (the Figures 2-5 /
/// Table 2 measurement loop) and returns one labeled curve set per index.
inline std::vector<LabeledCurves> RunAllVariants(const IndexSuite& suite,
                                                 const std::string& workload) {
  const DiskCostModel cost_model(suite.config().cost_model);
  std::vector<LabeledCurves> all;
  for (Strategy strategy : kAllStrategies) {
    for (SizeClass size_class : kAllSizeClasses) {
      const IndexVariant& v = suite.variant(strategy, size_class);
      Searcher searcher(&v.index, cost_model);
      auto curves =
          RunWorkload(searcher, suite.workload(workload == "DQ"),
                      suite.truth(size_class, workload), suite.config().k);
      QVT_CHECK_OK(curves.status()) << "workload run failed for " << v.Label();
      all.push_back({v.Label(), std::move(curves).value()});
    }
  }
  return all;
}

/// Leaf sizes for the Figure 6/7 chunk-size sweep: 16 log-spaced points
/// covering the paper's 100..100,000 *real* descriptor range, expressed in
/// stored (synthetic) descriptors via the cost model's descriptor scale,
/// capped at the SMALL retained collection size.
inline std::vector<size_t> SweepLeafSizes(const IndexSuite& suite) {
  const size_t retained = suite.retained(SizeClass::kSmall).size();
  const double scale =
      std::max(1.0, suite.config().cost_model.descriptor_scale);
  std::vector<size_t> sizes;
  double value = 100.0 / scale;
  const double factor = std::pow(1000.0, 1.0 / 15.0);  // spans 3 decades
  for (int i = 0; i < 16; ++i) {
    size_t leaf = std::max<size_t>(2, static_cast<size_t>(std::llround(value)));
    if (leaf >= retained) leaf = retained - 1;
    if (sizes.empty() || leaf != sizes.back()) sizes.push_back(leaf);
    value *= factor;
  }
  return sizes;
}

/// The Figure 6/7 measurement loop: for each sweep leaf size, build (or
/// load) an SR-tree index over the SMALL retained collection and report the
/// modeled time to find n in {1, 10, 20, 25, 28, 30} neighbors.
inline void RunChunkSizeSweep(const IndexSuite& suite,
                              const std::string& workload) {
  const std::vector<size_t> leaf_sizes = SweepLeafSizes(suite);
  const size_t neighbors_of_interest[] = {1, 10, 20, 25, 28, 30};
  const DiskCostModel cost_model(suite.config().cost_model);

  const double scale =
      std::max(1.0, suite.config().cost_model.descriptor_scale);
  std::vector<std::string> headers{"chunk size", "real-equiv", "chunks"};
  for (size_t n : neighbors_of_interest) {
    if (n <= suite.config().k) {
      headers.push_back(std::to_string(n) + " nb (s)");
    }
  }
  headers.push_back("completion (s)");
  TablePrinter table(std::move(headers));

  for (size_t leaf : leaf_sizes) {
    auto index = suite.SrIndexWithLeafSize(leaf);
    QVT_CHECK_OK(index.status()) << "sweep index " << leaf;
    Searcher searcher(&*index, cost_model);
    auto curves = RunWorkload(searcher, suite.workload(workload == "DQ"),
                              suite.truth(SizeClass::kSmall, workload),
                              suite.config().k);
    QVT_CHECK_OK(curves.status());

    std::vector<std::string> row{
        std::to_string(leaf),
        std::to_string(static_cast<size_t>(leaf * scale)),
        std::to_string(index->num_chunks())};
    for (size_t n : neighbors_of_interest) {
      if (n > suite.config().k) continue;
      row.push_back(curves->queries_reaching[n - 1] > 0
                        ? Seconds(curves->mean_model_seconds_at[n - 1])
                        : "-");
    }
    row.push_back(Seconds(curves->mean_completion_model_seconds));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

}  // namespace bench
}  // namespace qvt

#endif  // QVT_BENCH_BENCH_COMMON_H_

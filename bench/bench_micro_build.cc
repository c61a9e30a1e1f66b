// Microbench: wall time of the parallel index-construction pipeline vs
// --build-threads.
//
// Runs the deterministic build phases — synthetic generation, the SR-tree
// bulk partition, k-means and balanced k-means chunking, and the outlier
// split — at several thread counts, checks that every artifact is
// bit-identical across all of them (the determinism contract of
// util/parallel_for.h), prints a serial-vs-parallel speedup table, and
// writes the raw numbers to BENCH_build.json. On a single-core container
// the speedups print as ~1.0x; the bit-identity checks still exercise the
// full sharded code path.
//
// Flags: --images N (default 800), --tiny (64 images), --json PATH
// (default BENCH_build.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/outlier.h"
#include "cluster/srtree_chunker.h"
#include "descriptor/generator.h"
#include "util/build_stats.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/table.h"

namespace qvt {
namespace {

/// FNV-1a over raw bytes — enough to certify "same artifact" across runs in
/// the same process.
uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashCollection(const Collection& collection) {
  const auto raw = collection.RawData();
  const size_t n = collection.size();
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashBytes(h, &n, sizeof(n));
  return HashBytes(h, raw.data(), raw.size() * sizeof(float));
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

struct PhaseRun {
  std::string name;
  double seconds = 0.0;
  uint64_t fingerprint = 0;
};

/// One full build pass at the current BuildThreads() setting.
std::vector<PhaseRun> RunBuild(const GeneratorConfig& gen_config) {
  WallClock wall;
  std::vector<PhaseRun> phases;
  auto timed = [&](const std::string& name, auto&& fn) {
    Stopwatch watch(&wall);
    const uint64_t fp = fn();
    phases.push_back({name, watch.ElapsedSeconds(), fp});
  };

  Collection collection(gen_config.dim);
  timed("generate", [&] {
    collection = GenerateCollection(gen_config);
    return HashCollection(collection);
  });

  timed("srtree", [&] {
    SrTreeChunker chunker(/*leaf_capacity=*/1000);
    auto chunks = chunker.FormChunks(collection);
    QVT_CHECK_OK(chunks.status());
    return HashChunks(*chunks);
  });

  timed("kmeans", [&] {
    KMeansConfig config;
    config.num_clusters = std::max<size_t>(1, collection.size() / 1000);
    config.max_iterations = 6;  // enough work to measure, bounded runtime
    KMeansChunker chunker(config);
    auto chunks = chunker.FormChunks(collection);
    QVT_CHECK_OK(chunks.status());
    return HashChunks(*chunks);
  });

  timed("balanced-kmeans", [&] {
    BalancedKMeansConfig config;
    config.base.num_clusters = std::max<size_t>(1, collection.size() / 1000);
    config.base.max_iterations = 6;
    BalancedKMeansChunker chunker(config);
    auto chunks = chunker.FormChunks(collection);
    QVT_CHECK_OK(chunks.status());
    return HashChunks(*chunks);
  });

  timed("outlier", [&] {
    const OutlierSplit split =
        SplitByCentroidDistanceFraction(collection, 0.1, nullptr);
    uint64_t h = 0xcbf29ce484222325ULL;
    h = HashBytes(h, split.retained.data(),
                  split.retained.size() * sizeof(size_t));
    return HashBytes(h, split.outliers.data(),
                     split.outliers.size() * sizeof(size_t));
  });

  return phases;
}

int Main(int argc, char** argv) {
  GeneratorConfig gen_config;
  gen_config.num_images = 800;
  gen_config.descriptors_per_image = 100;
  gen_config.num_modes = 40;
  gen_config.seed = 20260806;
  std::string json_path = "BENCH_build.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) gen_config.num_images = 64;
    if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      gen_config.num_images = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts{1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
    std::sort(thread_counts.begin(), thread_counts.end());
  }

  std::cout << "### build pipeline scaling (" << gen_config.num_images
            << " images, hardware concurrency " << hw << ")\n";

  // Warm-up pass (discarded): page faults and allocator growth otherwise
  // land entirely on the first measured configuration and masquerade as a
  // parallel speedup.
  SetBuildThreads(1);
  RunBuild(gen_config);

  std::vector<std::vector<PhaseRun>> runs;
  for (size_t threads : thread_counts) {
    SetBuildThreads(threads);
    BuildStats::Global().Reset();
    runs.push_back(RunBuild(gen_config));
  }
  SetBuildThreads(0);  // back to the hardware default

  // Bit-identity across thread counts: the determinism contract.
  bool identical = true;
  for (size_t r = 1; r < runs.size(); ++r) {
    for (size_t p = 0; p < runs[r].size(); ++p) {
      if (runs[r][p].fingerprint != runs[0][p].fingerprint) {
        identical = false;
        std::cout << "MISMATCH: phase " << runs[r][p].name << " at "
                  << thread_counts[r] << " threads differs from 1 thread\n";
      }
    }
  }
  std::cout << "bit-identity across thread counts: "
            << (identical ? "OK" : "FAILED") << "\n";
  QVT_CHECK(identical) << "parallel build is not deterministic";

  std::vector<std::string> headers{"phase"};
  for (size_t threads : thread_counts) {
    headers.push_back(std::to_string(threads) + " thr (s)");
  }
  headers.push_back("speedup@" + std::to_string(thread_counts.back()));
  TablePrinter table(std::move(headers));
  char buf[64];
  const size_t num_phases = runs[0].size();
  std::vector<double> totals(thread_counts.size(), 0.0);
  for (size_t p = 0; p < num_phases; ++p) {
    std::vector<std::string> row{runs[0][p].name};
    for (size_t r = 0; r < runs.size(); ++r) {
      totals[r] += runs[r][p].seconds;
      std::snprintf(buf, sizeof(buf), "%.3f", runs[r][p].seconds);
      row.push_back(buf);
    }
    std::snprintf(buf, sizeof(buf), "%.2fx",
                  runs.back()[p].seconds > 0.0
                      ? runs[0][p].seconds / runs.back()[p].seconds
                      : 0.0);
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  std::vector<std::string> total_row{"TOTAL"};
  for (double t : totals) {
    std::snprintf(buf, sizeof(buf), "%.3f", t);
    total_row.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf), "%.2fx",
                totals.back() > 0.0 ? totals[0] / totals.back() : 0.0);
  total_row.push_back(buf);
  table.AddRow(std::move(total_row));
  table.Print(std::cout);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  std::fprintf(json, "{\n  \"hardware_concurrency\": %zu,\n", hw);
  std::fprintf(json, "  \"num_images\": %zu,\n", gen_config.num_images);
  std::fprintf(json, "  \"bit_identical\": true,\n");
  std::fprintf(json, "  \"phases\": {\n");
  for (size_t p = 0; p <= num_phases; ++p) {
    const bool is_total = p == num_phases;
    std::fprintf(json, "    \"%s\": {",
                 is_total ? "total" : runs[0][p].name.c_str());
    for (size_t r = 0; r < runs.size(); ++r) {
      const double seconds = is_total ? totals[r] : runs[r][p].seconds;
      std::fprintf(json, "%s\"threads_%zu_seconds\": %.6f",
                   r == 0 ? "" : ", ", thread_counts[r], seconds);
    }
    const double serial = is_total ? totals[0] : runs[0][p].seconds;
    const double widest = is_total ? totals.back() : runs.back()[p].seconds;
    std::fprintf(json, ", \"speedup\": %.3f}%s\n",
                 widest > 0.0 ? serial / widest : 0.0,
                 is_total ? "" : ",");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) { return qvt::Main(argc, argv); }

// End-to-end determinism tests for the parallel build pipeline: every build
// artifact must be byte-identical at every SetBuildThreads() count and, for
// the chunkers, on every SIMD backend. See the determinism contracts in
// util/parallel_for.h and geometry/kernels.h, and the "Parallel build
// pipeline" section of DESIGN.md.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/index_suite.h"
#include "cluster/bag.h"
#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "descriptor/generator.h"
#include "geometry/kernels.h"
#include "kernel_backends.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace qvt {
namespace {

/// Restores the hardware default thread count on scope exit.
struct BuildThreadsGuard {
  ~BuildThreadsGuard() { SetBuildThreads(0); }
};

/// The thread counts every artifact is checked at: serial, even split, a
/// count that leaves a ragged final shard, and whatever this machine has.
std::vector<size_t> TestThreadCounts() {
  std::vector<size_t> counts{1, 2, 7};
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 2 && hw != 7) counts.push_back(hw);
  return counts;
}

/// ~800 rows: below every row-loop grain, so only task-level parallelism
/// (SR-tree slices, BAG's per-cluster work) splits. BAG, superlinear in the
/// row count, is checked at this size.
GeneratorConfig TestGeneratorConfig() {
  GeneratorConfig config;
  config.num_images = 40;
  config.descriptors_per_image = 20;
  config.num_modes = 8;
  config.seed = 11;
  return config;
}

/// ~10k rows over 400 images: past the generator's 64-image grain and the
/// 4096- and 8192-row grains of the k-means, pq and SR-tree scans, so every
/// row loop splits into several shards, the last one ragged.
GeneratorConfig LargeGeneratorConfig() {
  GeneratorConfig config = TestGeneratorConfig();
  config.num_images = 400;
  config.descriptors_per_image = 25;
  return config;
}

/// Builds a chunk index with `chunker` at the given thread count and kernel
/// backend and returns the concatenated bytes of both output files (chunk
/// file + index file).
std::vector<uint8_t> IndexFileBytes(
    const Collection& collection, Chunker& chunker, size_t threads,
    kernels::Backend backend) {
  SetBuildThreads(threads);
  kernels::SetBackendForTesting(backend);
  auto chunking = chunker.FormChunks(collection);
  QVT_CHECK_OK(chunking.status()) << chunker.name();
  MemEnv env;
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase("idx");
  auto index = ChunkIndex::Build(collection, *chunking, &env, paths);
  QVT_CHECK_OK(index.status()) << chunker.name();
  auto chunk_bytes = ReadFileBytes(&env, paths.chunk_file);
  auto index_bytes = ReadFileBytes(&env, paths.index_file);
  QVT_CHECK_OK(chunk_bytes.status());
  QVT_CHECK_OK(index_bytes.status());
  std::vector<uint8_t> all = std::move(chunk_bytes).value();
  all.insert(all.end(), index_bytes->begin(), index_bytes->end());
  return all;
}

/// Asserts the chunker produces byte-identical index files at every tested
/// (thread count, supported backend) pair, against the serial scalar build
/// (the collection itself is generated serially once, so any divergence is
/// the chunker's).
void ExpectChunkerThreadCountInvariant(
    const std::function<std::unique_ptr<Chunker>()>& make_chunker,
    const GeneratorConfig& config = LargeGeneratorConfig()) {
  BuildThreadsGuard threads_guard;
  BackendGuard backend_guard;
  SetBuildThreads(1);
  const Collection collection = GenerateCollection(config);
  auto chunker = make_chunker();
  const std::vector<uint8_t> serial =
      IndexFileBytes(collection, *chunker, 1, kernels::Backend::kScalar);
  ASSERT_FALSE(serial.empty());
  for (const kernels::Backend backend : SupportedBackends()) {
    for (size_t threads : TestThreadCounts()) {
      if (threads == 1 && backend == kernels::Backend::kScalar) continue;
      auto other_chunker = make_chunker();
      const std::vector<uint8_t> other =
          IndexFileBytes(collection, *other_chunker, threads, backend);
      ASSERT_EQ(other.size(), serial.size())
          << chunker->name() << " at " << threads << " threads on "
          << kernels::BackendName(backend);
      EXPECT_EQ(std::memcmp(other.data(), serial.data(), serial.size()), 0)
          << chunker->name() << " index files differ at " << threads
          << " threads on " << kernels::BackendName(backend);
    }
  }
}

TEST(ParallelBuildTest, GeneratorIsThreadCountInvariant) {
  BuildThreadsGuard guard;
  SetBuildThreads(1);
  const Collection serial = GenerateCollection(LargeGeneratorConfig());
  const auto serial_raw = serial.RawData();
  for (size_t threads : TestThreadCounts()) {
    if (threads == 1) continue;
    SetBuildThreads(threads);
    const Collection parallel = GenerateCollection(LargeGeneratorConfig());
    const auto parallel_raw = parallel.RawData();
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    ASSERT_EQ(parallel_raw.size(), serial_raw.size());
    EXPECT_EQ(std::memcmp(parallel_raw.data(), serial_raw.data(),
                          serial_raw.size() * sizeof(float)),
              0)
        << "generated descriptors differ at " << threads << " threads";
  }
}

TEST(ParallelBuildTest, SrTreeChunkerBitIdentical) {
  ExpectChunkerThreadCountInvariant(
      [] { return std::make_unique<SrTreeChunker>(64); });
}

TEST(ParallelBuildTest, BagChunkerBitIdentical) {
  ExpectChunkerThreadCountInvariant(
      [] { return std::make_unique<BagChunker>(12, BagConfig{}); },
      TestGeneratorConfig());
}

TEST(ParallelBuildTest, RoundRobinChunkerBitIdentical) {
  ExpectChunkerThreadCountInvariant(
      [] { return std::make_unique<RoundRobinChunker>(50); });
}

TEST(ParallelBuildTest, KMeansChunkerBitIdentical) {
  ExpectChunkerThreadCountInvariant([] {
    KMeansConfig config;
    config.num_clusters = 8;
    config.max_iterations = 8;
    return std::make_unique<KMeansChunker>(config);
  });
}

TEST(ParallelBuildTest, BalancedKMeansChunkerBitIdentical) {
  ExpectChunkerThreadCountInvariant([] {
    // The default bound (5% over an even share) is tight enough that
    // points spill past their nearest centroid.
    BalancedKMeansConfig config;
    config.base.num_clusters = 8;
    config.base.max_iterations = 8;
    return std::make_unique<BalancedKMeansChunker>(config);
  });
}

TEST(ParallelBuildTest, SameSeedBuildsAreByteIdentical) {
  // Two builds from the same master seed — in the same process, at a
  // parallel thread count — must produce byte-identical index files: all
  // build-path RNG flows through deterministic stream splitting, never
  // through shared mutable generator state.
  BuildThreadsGuard threads_guard;
  BackendGuard backend_guard;
  const kernels::Backend backend = kernels::ActiveBackend();
  const size_t threads = TestThreadCounts().back();
  SetBuildThreads(threads);
  const Collection first_collection = GenerateCollection(TestGeneratorConfig());
  const Collection second_collection =
      GenerateCollection(TestGeneratorConfig());
  KMeansConfig config;
  config.num_clusters = 8;
  KMeansChunker first_chunker(config);
  KMeansChunker second_chunker(config);
  const std::vector<uint8_t> first =
      IndexFileBytes(first_collection, first_chunker, threads, backend);
  const std::vector<uint8_t> second =
      IndexFileBytes(second_collection, second_chunker, threads, backend);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0);
}

TEST(ParallelBuildTest, ConcurrentSuiteBuildsAreSafe) {
  // TSan hammer: several threads race BuildOrLoad on the same cache dir.
  // The file lock serializes the actual build; the rest load the cache.
  // Under -DQVT_SANITIZE=thread this is the data-race detector for the
  // whole suite-construction path.
  BuildThreadsGuard guard;
  SetBuildThreads(2);
  ExperimentConfig config = ExperimentConfig::Tiny();
  config.cache_dir = "/tmp/qvt_parallel_build_test_" + std::to_string(getpid());
  std::filesystem::remove_all(config.cache_dir);

  constexpr int kThreads = 3;
  std::vector<std::unique_ptr<IndexSuite>> suites(kThreads);
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto suite = IndexSuite::BuildOrLoad(config, Env::Posix());
      statuses[t] = suite.status();
      if (suite.ok()) suites[t] = std::move(suite).value();
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "builder " << t << ": "
                                  << statuses[t].message();
    ASSERT_NE(suites[t], nullptr);
  }
  // Every racer must observe the same suite.
  for (int t = 1; t < kThreads; ++t) {
    for (Strategy strategy : kAllStrategies) {
      for (SizeClass size_class : kAllSizeClasses) {
        const IndexVariant& a = suites[0]->variant(strategy, size_class);
        const IndexVariant& b = suites[t]->variant(strategy, size_class);
        EXPECT_EQ(a.index.num_chunks(), b.index.num_chunks());
        EXPECT_EQ(a.retained, b.retained);
      }
    }
  }
  suites.clear();
  std::filesystem::remove_all(config.cache_dir);
}

}  // namespace
}  // namespace qvt

#include "core/batch_searcher.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/runner.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/exact_scan.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "search_reference.h"
#include "storage/chunk_cache.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

struct BatchFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  Workload workload;

  explicit BatchFixture(size_t num_queries = 120, uint64_t seed = 21) {
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
};

// Compares unified batch results against a directly-collected serial
// reference of Searcher::Search results — pinning the telemetry as well as
// the neighbors.
void ExpectIdenticalResults(const std::vector<MethodResult>& a,
                            const std::vector<MethodResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].telemetry.chunks_read, b[q].telemetry.chunks_read)
        << "query " << q;
    EXPECT_EQ(a[q].telemetry.descriptors_scanned,
              b[q].telemetry.descriptors_scanned)
        << "query " << q;
    EXPECT_EQ(a[q].telemetry.model_micros, b[q].telemetry.model_micros)
        << "query " << q;
    EXPECT_EQ(a[q].telemetry.exact, b[q].telemetry.exact) << "query " << q;
    ASSERT_EQ(a[q].neighbors.size(), b[q].neighbors.size()) << "query " << q;
    for (size_t i = 0; i < a[q].neighbors.size(); ++i) {
      EXPECT_EQ(a[q].neighbors[i].id, b[q].neighbors[i].id)
          << "query " << q << " rank " << i;
      EXPECT_DOUBLE_EQ(a[q].neighbors[i].distance, b[q].neighbors[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// The ISSUE's headline determinism test: 8 worker threads must return
// bit-identical neighbors, chunks_read, and modeled times to the serial
// searcher, over >= 100 queries.
TEST(BatchSearcherTest, EightThreadsBitIdenticalToSerial) {
  BatchFixture fx(/*num_queries=*/120);
  Searcher searcher(&*fx.index, DiskCostModel());

  // Reference: the plain serial loop over Searcher::Search.
  std::vector<MethodResult> serial;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    auto result =
        searcher.Search(fx.workload.Query(q), 10, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    serial.push_back(std::move(result).value());
  }

  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher threaded(method.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_threads, 8u);
  ExpectIdenticalResults(batch->results, serial);
  // Chunk-level abandon fired, so the identity covers skipped sweeps; under
  // the exact rule each query's sweep sequence is its lone one, so even
  // the skips agree.
  uint64_t serial_skipped = 0;
  for (const MethodResult& r : serial) {
    serial_skipped += r.telemetry.sweeps_skipped;
  }
  EXPECT_GT(serial_skipped, 0u);
  EXPECT_EQ(batch->totals.sweeps_skipped, serial_skipped);
}

// Every registered method over one shared index: four worker threads read
// the same mapped index columns and chunk file concurrently (a TSan build
// proves the shared view race-free) and must answer exactly as one thread
// does. The chunked method under a budget also covers the radius and
// location columns its pruning path reads.
TEST(BatchSearcherTest, AllMethodsFourThreadsMatchOneOverASharedIndex) {
  BatchFixture fx(/*num_queries=*/24);
  MethodContext context;
  context.collection = &fx.collection;
  context.index = &*fx.index;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    SCOPED_TRACE(info.name);
    auto method = MethodRegistry::Global().Create(info.name, context);
    ASSERT_TRUE(method.ok()) << method.status().ToString();
    ASSERT_TRUE((*method)->Prepare().ok());
    std::vector<StopRule> rules = {StopRule::Exact()};
    if (info.name == "chunked") rules.push_back(StopRule::MaxChunks(2));
    for (const StopRule& rule : rules) {
      BatchSearcher serial(method->get(), 1);
      BatchSearcher threaded(method->get(), 4);
      auto reference = serial.SearchAll(fx.workload, 10, rule);
      ASSERT_TRUE(reference.ok());
      auto batch = threaded.SearchAll(fx.workload, 10, rule);
      ASSERT_TRUE(batch.ok());
      ExpectIdenticalResults(batch->results, reference->results);
      for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
        const QueryTelemetry& a = batch->results[q].telemetry;
        const QueryTelemetry& b = reference->results[q].telemetry;
        EXPECT_EQ(a.probes, b.probes) << "query " << q;
        EXPECT_EQ(a.index_entries_scanned, b.index_entries_scanned)
            << "query " << q;
        EXPECT_EQ(a.candidates_examined, b.candidates_examined)
            << "query " << q;
        EXPECT_EQ(a.bytes_read, b.bytes_read) << "query " << q;
      }
    }
  }
}

TEST(BatchSearcherTest, SingleThreadMatchesSerialLoop) {
  BatchFixture fx(/*num_queries=*/40);
  Searcher searcher(&*fx.index, DiskCostModel());

  std::vector<MethodResult> serial;
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    auto result = searcher.Search(fx.workload.Query(q), 5,
                                  StopRule::MaxChunks(3));
    ASSERT_TRUE(result.ok());
    serial.push_back(std::move(result).value());
  }

  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 1);
  auto batch = batch_searcher.SearchAll(fx.workload, 5, StopRule::MaxChunks(3));
  ASSERT_TRUE(batch.ok());
  ExpectIdenticalResults(batch->results, serial);
}

TEST(BatchSearcherTest, ResultsStayInInputOrder) {
  BatchFixture fx(/*num_queries=*/100);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher threaded(method.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 3, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  // Dataset queries are collection members: result slot q must hold the
  // query q whose own descriptor sits at distance 0.
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    ASSERT_FALSE(batch->results[q].neighbors.empty()) << "query " << q;
    EXPECT_DOUBLE_EQ(batch->results[q].neighbors[0].distance, 0.0)
        << "query " << q;
  }
}

TEST(BatchSearcherTest, SharedCacheKeepsAnswersIdentical) {
  BatchFixture fx(/*num_queries=*/100);
  const auto plain = MakeChunkedMethod(&*fx.index);
  ChunkCache cache(256, /*num_shards=*/4);  // small: eviction under load
  const auto cached = MakeChunkedMethod(&*fx.index, &cache);

  BatchSearcher serial(plain.get(), 1);
  auto reference = serial.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(reference.ok());

  BatchSearcher threaded(cached.get(), 8);
  auto batch = threaded.SearchAll(fx.workload, 10, StopRule::Exact());
  ASSERT_TRUE(batch.ok());

  // Neighbors and chunks_read must not depend on cache hits (only the
  // modeled charge does, which a shared cache makes schedule-dependent).
  for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
    const MethodResult& a = batch->results[q];
    const MethodResult& b = reference->results[q];
    EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read)
        << "query " << q;
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "query " << q;
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
          << "query " << q << " rank " << i;
    }
    // The cached run's telemetry must balance its verdicts.
    EXPECT_EQ(a.telemetry.cache_hits + a.telemetry.cache_misses,
              a.telemetry.chunks_read)
        << "query " << q;
  }
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(cache.used_pages(), 256u);
}

// Eight worker threads fetch chunks into one shared ChunkCache, so a chunk
// one thread reads is already resident (read ahead) for the others. Under an
// exact and a budgeted stop rule, neighbors (ids and distances bitwise),
// chunks_read and exact verdicts must match the synchronous uncached serial
// reference exactly (modeled time is excluded: with a shared cache it
// depends on which thread warmed a chunk first).
TEST(BatchSearcherTest, PrefetchingThreadsMatchSynchronousSerial) {
  BatchFixture fx(/*num_queries=*/100);
  const auto sync = MakeChunkedMethod(&*fx.index);
  ChunkCache cache(256, /*num_shards=*/4);  // small: eviction under load
  const auto shared = MakeChunkedMethod(&*fx.index, &cache);

  for (const StopRule& rule : {StopRule::Exact(), StopRule::MaxChunks(3)}) {
    BatchSearcher serial(sync.get(), 1);
    auto reference = serial.SearchAll(fx.workload, 10, rule);
    ASSERT_TRUE(reference.ok());

    BatchSearcher threaded(shared.get(), 8);
    auto batch = threaded.SearchAll(fx.workload, 10, rule);
    ASSERT_TRUE(batch.ok());

    for (size_t q = 0; q < fx.workload.num_queries(); ++q) {
      const MethodResult& a = batch->results[q];
      const MethodResult& b = reference->results[q];
      EXPECT_EQ(a.telemetry.chunks_read, b.telemetry.chunks_read)
          << "query " << q;
      EXPECT_EQ(a.telemetry.exact, b.telemetry.exact) << "query " << q;
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "query " << q;
      for (size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
            << "query " << q << " rank " << i;
        EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance)
            << "query " << q << " rank " << i;
      }
      EXPECT_EQ(a.telemetry.cache_hits + a.telemetry.cache_misses,
                a.telemetry.chunks_read)
          << "query " << q;
    }
  }
  // The cold first pass must have read real chunks, and the second rule's
  // pass runs over the chunks the first one warmed.
  const ChunkCacheStats stats = cache.Stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.used_pages(), 256u);
}

TEST(BatchSearcherTest, PercentilesAreOrdered) {
  BatchFixture fx(/*num_queries=*/50);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  auto batch = batch_searcher.SearchAll(fx.workload, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_LE(batch->wall.p50, batch->wall.p95);
  EXPECT_LE(batch->wall.p95, batch->wall.p99);
  EXPECT_LE(batch->wall.p99, batch->wall.max);
  EXPECT_LE(batch->model.p50, batch->model.p95);
  EXPECT_LE(batch->model.p95, batch->model.p99);
  EXPECT_LE(batch->model.p99, batch->model.max);
  EXPECT_GT(batch->model.p50, 0);
  EXPECT_GE(batch->batch_wall_micros, 0);
}

/// Threads in this process (Linux /proc), or 0 where that is unreadable.
size_t ProcessThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  size_t count = 0;
  for (; !error && it != std::filesystem::directory_iterator();
       it.increment(error)) {
    ++count;
  }
  return error ? 0 : count;
}

/// Forwards to `inner`, recording which threads call it and how many
/// threads the process has at each call. A call that carries the query at
/// `slow` (by address) is held back 30 ms first, so its slice finishes
/// after the others and every worker the batch started exists by then.
class ProbeMethod final : public SearchMethod {
 public:
  ProbeMethod(const SearchMethod* inner, const float* slow)
      : inner_(inner), slow_(slow) {}

  std::string_view name() const override { return "probe"; }
  std::string Describe() const override { return std::string(name()); }
  Status Prepare() override { return Status::OK(); }
  bool SupportsSharedScan() const override {
    return inner_->SupportsSharedScan();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    Probe({&query, 1});
    return inner_->Search(query, k, stop, excluded);
  }

  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* stats,
      std::span<const DescriptorId> excluded,
      std::span<const double> bounds) const override {
    Probe(queries);
    return inner_->SearchShared(queries, k, stop, stats, excluded, bounds);
  }

  size_t calling_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }
  size_t max_process_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_process_threads_;
  }

 private:
  void Probe(std::span<const std::span<const float>> queries) const {
    for (const std::span<const float> query : queries) {
      if (query.data() == slow_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
    }
    const size_t process_threads = ProcessThreads();
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
    max_process_threads_ = std::max(max_process_threads_, process_threads);
  }

  const SearchMethod* inner_;
  const float* slow_;
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
  mutable size_t max_process_threads_ = 0;
};

TEST(BatchSearcherTest, PropagatesPerQueryErrors) {
  BatchFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  auto bad = batch_searcher.SearchAll(fx.workload, 0, StopRule::Exact());
  EXPECT_TRUE(bad.status().IsInvalidArgument());

  // Two invalid queries whose errors differ: whatever the thread count,
  // mode and schedule, the batch fails with the serial loop's error (the
  // lower-index query's). Query 5 is held back, so query 70 fails first in
  // time whenever another worker reaches it.
  BatchFixture big(/*num_queries=*/100);
  big.workload.queries[5 * big.workload.dim + 3] =
      std::numeric_limits<float>::quiet_NaN();
  big.workload.queries[70 * big.workload.dim + 17] =
      std::numeric_limits<float>::infinity();
  const auto big_method = MakeChunkedMethod(&*big.index);
  Status serial = Status::OK();
  for (size_t q = 0; q < big.workload.num_queries() && serial.ok(); ++q) {
    serial = big_method->Search(big.workload.Query(q), 10).status();
  }
  ASSERT_TRUE(serial.IsInvalidArgument());
  const ProbeMethod slow_five(big_method.get(), big.workload.Query(5).data());
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    for (const bool shared_scan : {true, false}) {
      BatchSearcher batcher(&slow_five, threads, shared_scan);
      auto failed = batcher.SearchAll(big.workload, 10, StopRule::Exact());
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().ToString(), serial.ToString())
          << "t" << threads << (shared_scan ? " chunk-major" : "");
    }
  }
}

// A batch starts at most one worker per slice: three queries at eight
// threads run on at most three threads, in either mode.
TEST(BatchSearcherTest, StartsNoMoreWorkersThanSlices) {
  BatchFixture fx(/*num_queries=*/3);
  const auto chunked = MakeChunkedMethod(&*fx.index);
  for (const bool shared_scan : {true, false}) {
    const std::string label = shared_scan ? "chunk-major" : "query-major";
    const ProbeMethod method(chunked.get(), fx.workload.Query(0).data());
    const size_t before = ProcessThreads();
    BatchSearcher batcher(&method, 8, shared_scan);
    auto batch = batcher.SearchAll(fx.workload, 5, StopRule::Exact());
    ASSERT_TRUE(batch.ok()) << label;
    EXPECT_EQ(batch->results.size(), 3u) << label;
    EXPECT_GE(method.calling_threads(), 1u) << label;
    EXPECT_LE(method.calling_threads(), 3u) << label;
    if (before > 0) {
      EXPECT_LE(method.max_process_threads(), before + 3) << label;
    }
  }
}

// num_threads reports the workers that ran, not the ones asked for: a
// batch starts at most one worker per slice.
TEST(BatchSearcherTest, ReportsTheWorkersItStarted) {
  BatchFixture fx(/*num_queries=*/2);
  const auto method = MakeChunkedMethod(&*fx.index);
  for (const bool shared_scan : {true, false}) {
    const std::string label = shared_scan ? "chunk-major" : "query-major";
    BatchSearcher batcher(method.get(), 16, shared_scan);
    auto batch = batcher.SearchAll(fx.workload, 5, StopRule::MaxChunks(8));
    ASSERT_TRUE(batch.ok()) << label;
    EXPECT_EQ(batch->shared.enabled, shared_scan) << label;
    EXPECT_EQ(batch->num_threads, 2u) << label;
  }
}

TEST(BatchSearcherTest, EmptyWorkloadSucceeds) {
  BatchFixture fx(/*num_queries=*/5);
  const auto method = MakeChunkedMethod(&*fx.index);
  BatchSearcher batch_searcher(method.get(), 4);
  Workload empty;
  empty.dim = fx.workload.dim;
  auto batch = batch_searcher.SearchAll(empty, 5, StopRule::Exact());
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->results.empty());
  // The calling thread ran the (empty) loop alone.
  EXPECT_EQ(batch->num_threads, 1u);
  // Regression: aggregating a zero-query batch must not abort in the
  // percentile path (SampleStats used to QVT_CHECK on empty input); the
  // latency summary degrades to all-zero defaults instead.
  EXPECT_EQ(batch->wall.p50, 0);
  EXPECT_EQ(batch->wall.p99, 0);
  EXPECT_EQ(batch->wall.max, 0);
  EXPECT_EQ(batch->wall.mean, 0.0);
  EXPECT_EQ(batch->model.p50, 0);
  EXPECT_EQ(batch->model.max, 0);
}

// ---------------------------------------------------------------------------
// bench_util wiring
// ---------------------------------------------------------------------------

TEST(RunWorkloadBatchTest, ThreadCountDoesNotChangeDeterministicMetrics) {
  BatchFixture fx(/*num_queries=*/100);
  const auto method = MakeChunkedMethod(&*fx.index);
  const GroundTruth truth =
      GroundTruth::Compute(fx.collection, fx.workload, 10);

  auto serial = RunMethodBatch(*method, fx.workload, &truth, 10,
                               StopRule::Exact(), 1);
  auto threaded = RunMethodBatch(*method, fx.workload, &truth, 10,
                                 StopRule::Exact(), 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(serial->num_threads, 1u);
  EXPECT_EQ(threaded->num_threads, 8u);
  EXPECT_DOUBLE_EQ(serial->mean_chunks_read, threaded->mean_chunks_read);
  EXPECT_DOUBLE_EQ(serial->mean_final_precision,
                   threaded->mean_final_precision);
  EXPECT_DOUBLE_EQ(serial->mean_final_precision, 1.0);  // exact stop rule
  EXPECT_EQ(serial->model.p50, threaded->model.p50);
  EXPECT_EQ(serial->model.p99, threaded->model.p99);
}

TEST(RunWorkloadBatchTest, RejectsMismatchedTruth) {
  BatchFixture fx(/*num_queries=*/10);
  const auto method = MakeChunkedMethod(&*fx.index);
  const GroundTruth truth = GroundTruth::Compute(fx.collection, fx.workload, 5);
  auto report = RunMethodBatch(*method, fx.workload, &truth, 10,
                               StopRule::Exact(), 2);
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qvt

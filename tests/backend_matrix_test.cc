// The SIMD backend promise, end to end: every registered search method, and
// the dynamic layer over each of them, built and queried with each backend
// this CPU supports pinned, answers exactly as the scalar reference does —
// neighbor ids, distance bits, every telemetry counter, the exact verdict
// and the cost-model clocks — under every stop rule the method accepts,
// per query through Search and through a chunk-major BatchSearcher. The
// paper's figures are drawn from those counters and clocks, so this is what
// makes them independent of the machine they are computed on. Building
// under the pinned backend covers the build-side kernel calls too (k-means,
// balanced k-means, BAG, pq training, P-Sphere assignment). The chunked
// method's MaxChunks plan, whose fp32 first pass may round differently on
// each backend, is also held to the full ranking on every backend.

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/bag.h"
#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "descriptor/range_analysis.h"
#include "descriptor/workload.h"
#include "dynamic/dynamic_index.h"
#include "geometry/kernels.h"
#include "kernel_backends.h"
#include "search_reference.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

using kernels::Backend;

constexpr size_t kK = 10;

/// Parameters that keep a method's build small on the test data; every
/// other method runs its defaults.
std::string ParamsFor(const std::string& method) {
  if (method == "psphere") return "num_spheres=8";
  if (method == "pq") return "m=4,ksub=16,rerank=32";
  return "";
}

/// Generated descriptors, centered on each dimension's mean and with
/// dimension d scaled by 0.7^d. On the raw generator output every float
/// difference squares exactly into a shared grid of doubles, so each kernel
/// sum is exact and neither the order a backend accumulates in nor a fused
/// multiply-add could show in any answer. Dimensions spread over binades
/// make the sums round, and coordinates that straddle zero make the
/// differences too wide to square exactly.
Collection MatrixCollection() {
  GeneratorConfig config;
  config.num_images = 40;
  config.descriptors_per_image = 15;
  config.num_modes = 6;
  config.seed = 29;
  const Collection generated = GenerateCollection(config);
  const size_t dim = generated.dim();
  std::vector<double> mean(dim, 0.0);
  for (size_t i = 0; i < generated.size(); ++i) {
    for (size_t d = 0; d < dim; ++d) mean[d] += generated.Vector(i)[d];
  }
  for (double& m : mean) m /= static_cast<double>(generated.size());
  Collection shaped(dim);
  std::vector<float> row(dim);
  for (size_t i = 0; i < generated.size(); ++i) {
    const std::span<const float> values = generated.Vector(i);
    double scale = 1.0;
    for (size_t d = 0; d < dim; ++d, scale *= 0.7) {
      row[d] = static_cast<float>((values[d] - mean[d]) * scale);
    }
    shaped.Append(generated.Id(i), row, generated.Image(i));
  }
  return shaped;
}

/// The §5.3 workload pair in one batch: dataset queries (a match exists)
/// followed by space queries (none does).
Workload MatrixWorkload(const Collection& collection) {
  Rng rng(31);
  Workload workload = MakeDatasetQueries(collection, 8, &rng);
  const Workload space =
      MakeSpaceQueries(ComputeTrimmedRanges(collection), 8, &rng);
  workload.name = "DQ+SQ";
  workload.queries.insert(workload.queries.end(), space.queries.begin(),
                          space.queries.end());
  return workload;
}

/// A prepared method and whatever it borrows. Built in place, never moved.
struct Subject {
  MemEnv env;
  std::optional<ChunkIndex> index;
  std::unique_ptr<SearchMethod> method;
};

using SubjectBuilder = std::function<std::unique_ptr<Subject>()>;

void ExpectSameTelemetry(const QueryTelemetry& got, const QueryTelemetry& want,
                         const std::string& label) {
  EXPECT_EQ(got.model_micros, want.model_micros) << label;
  EXPECT_EQ(got.model_overlapped_micros, want.model_overlapped_micros)
      << label;
  EXPECT_EQ(got.plan.model_micros, want.plan.model_micros) << label;
  EXPECT_EQ(got.scan.model_micros, want.scan.model_micros) << label;
  EXPECT_EQ(got.refine.model_micros, want.refine.model_micros) << label;
  EXPECT_EQ(got.probes, want.probes) << label;
  EXPECT_EQ(got.index_entries_scanned, want.index_entries_scanned) << label;
  EXPECT_EQ(got.candidates_examined, want.candidates_examined) << label;
  EXPECT_EQ(got.descriptors_scanned, want.descriptors_scanned) << label;
  EXPECT_EQ(got.bytes_read, want.bytes_read) << label;
  EXPECT_EQ(got.chunks_read, want.chunks_read) << label;
  EXPECT_EQ(got.sweeps_skipped, want.sweeps_skipped) << label;
  EXPECT_EQ(got.max_probe_rows, want.max_probe_rows) << label;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << label;
  EXPECT_EQ(got.cache_misses, want.cache_misses) << label;
  EXPECT_EQ(got.shards_searched, want.shards_searched) << label;
  EXPECT_EQ(got.tombstones_filtered, want.tombstones_filtered) << label;
  EXPECT_EQ(got.exact, want.exact) << label;
}

void ExpectSameResults(const std::vector<MethodResult>& got,
                       const std::vector<MethodResult>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < got.size(); ++q) {
    const std::string at = label + " query " + std::to_string(q);
    ASSERT_EQ(got[q].neighbors.size(), want[q].neighbors.size()) << at;
    for (size_t i = 0; i < got[q].neighbors.size(); ++i) {
      EXPECT_EQ(got[q].neighbors[i].id, want[q].neighbors[i].id)
          << at << " rank " << i;
      EXPECT_EQ(std::memcmp(&got[q].neighbors[i].distance,
                            &want[q].neighbors[i].distance, sizeof(double)),
                0)
          << at << " rank " << i;
    }
    ExpectSameTelemetry(got[q].telemetry, want[q].telemetry, at);
    ASSERT_EQ(got[q].shards.size(), want[q].shards.size()) << at;
    for (size_t s = 0; s < got[q].shards.size(); ++s) {
      const ShardAttribution& a = got[q].shards[s];
      const ShardAttribution& b = want[q].shards[s];
      EXPECT_EQ(a.shard_id, b.shard_id) << at << " shard " << s;
      EXPECT_EQ(a.level, b.level) << at << " shard " << s;
      EXPECT_EQ(a.rows, b.rows) << at << " shard " << s;
      EXPECT_EQ(a.neighbors_contributed, b.neighbors_contributed)
          << at << " shard " << s;
      EXPECT_EQ(a.tombstones_filtered, b.tombstones_filtered)
          << at << " shard " << s;
    }
  }
}

/// Builds the subject once per supported backend, with that backend pinned
/// from the build on, and holds every backend's answers to the scalar
/// build's: each query through Search, then the whole workload through a
/// two-thread BatchSearcher (chunk-major wherever the method has a shared
/// executor), under the exact rule and, when
/// the method honors stop rules, MaxChunks, epsilon and a time budget that
/// stops mid-scan.
void ExpectBackendInvariant(const std::string& label, bool stop_rules,
                            const SubjectBuilder& build,
                            const Workload& workload) {
  BackendGuard guard;
  std::vector<StopRule> rules = {StopRule::Exact()};
  // The scalar answers per rule, per path. The paths are held apart: a
  // chunk-major schedule may skip different sweeps than a lone query does
  // (answers and charges agree; core_shared_scan_test pins that).
  std::vector<std::vector<MethodResult>> reference_search;
  std::vector<std::vector<MethodResult>> reference_batch;
  for (const Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    const std::unique_ptr<Subject> subject = build();
    ASSERT_NE(subject, nullptr) << label;
    const SearchMethod& method = *subject->method;
    for (size_t r = 0; r < rules.size(); ++r) {
      const std::string at =
          label + "/" + kernels::BackendName(backend) + "/rule " +
          std::to_string(r);
      std::vector<MethodResult> answers;
      for (size_t q = 0; q < workload.num_queries(); ++q) {
        auto result = method.Search(workload.Query(q), kK, rules[r]);
        ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
        answers.push_back(std::move(result).value());
      }
      auto batch = BatchSearcher(&method, 2).SearchAll(workload, kK, rules[r]);
      ASSERT_TRUE(batch.ok()) << at << ": " << batch.status().ToString();

      if (backend == Backend::kScalar) {
        reference_search.push_back(answers);
        reference_batch.push_back(batch->results);
        if (r == 0 && stop_rules) {
          const int64_t budget = answers.front().telemetry.model_micros / 2;
          ASSERT_GT(budget, 0) << at;
          rules.push_back(StopRule::MaxChunks(3));
          rules.push_back(StopRule::EpsilonApproximate(0.1));
          rules.push_back(StopRule::TimeBudget(budget));
        }
      }
      ExpectSameResults(answers, reference_search[r], at + " Search");
      ExpectSameResults(batch->results, reference_batch[r], at + " batch");
    }
  }
  EXPECT_EQ(rules.size(), stop_rules ? 4u : 1u) << label;
}

/// The registered method over `collection`; "chunked" reads a chunk index
/// built by `chunker`.
SubjectBuilder StaticBuilder(const std::string& name,
                             const Collection* collection,
                             const std::function<std::unique_ptr<Chunker>()>&
                                 make_chunker) {
  return [=]() -> std::unique_ptr<Subject> {
    auto subject = std::make_unique<Subject>();
    MethodContext context;
    context.collection = collection;
    context.env = &subject->env;
    if (make_chunker != nullptr) {
      auto chunking = make_chunker()->FormChunks(*collection);
      QVT_CHECK_OK(chunking.status());
      auto index = ChunkIndex::Build(*collection, *chunking, &subject->env,
                                     ChunkIndexPaths::ForBase("idx"));
      QVT_CHECK_OK(index.status());
      subject->index.emplace(std::move(index).value());
      context.index = &*subject->index;
    }
    auto method =
        MethodRegistry::Global().Create(name, context, ParamsFor(name));
    QVT_CHECK_OK(method.status()) << name;
    QVT_CHECK_OK((*method)->Prepare()) << name;
    subject->method = std::move(method).value();
    return subject;
  };
}

/// A dynamic index over `name` that reached its state through an insert
/// stream with deletes: flushed and merged shards holding tombstones, plus
/// rows still in the mutable buffer.
SubjectBuilder DynamicBuilder(const std::string& name,
                              const Collection* collection) {
  return [=]() -> std::unique_ptr<Subject> {
    auto subject = std::make_unique<Subject>();
    DynamicOptions options;
    options.method = name;
    options.method_params = ParamsFor(name);
    options.extension.buffer_capacity = 60;
    options.extension.scale_factor = 3;
    options.target_chunk_size = 25;
    auto created = DynamicIndex::Create(&subject->env, "dyn", options);
    QVT_CHECK_OK(created.status()) << name;
    DynamicIndex& index = **created;
    for (size_t i = 0; i < collection->size(); ++i) {
      QVT_CHECK_OK(index.Insert(collection->Id(i), collection->Vector(i)));
      if (i % 11 == 5 && i >= 20) {
        QVT_CHECK_OK(index.Delete(collection->Id(i - 20)));
      }
    }
    QVT_CHECK(index.num_shards() > 1 && index.buffer_rows() > 0) << name;
    subject->method = std::move(created).value();
    return subject;
  };
}

std::vector<std::string> RegisteredMethods() {
  std::vector<std::string> names;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    names.push_back(info.name);
  }
  return names;
}

class BackendMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendMatrixTest, StaticMethodMatchesScalar) {
  const std::string& name = GetParam();
  auto info = MethodRegistry::Global().Info(name);
  ASSERT_TRUE(info.ok());
  const Collection collection = MatrixCollection();
  const Workload workload = MatrixWorkload(collection);
  if (name != "chunked") {
    ExpectBackendInvariant(name, info->capabilities.stop_rules,
                           StaticBuilder(name, &collection, nullptr),
                           workload);
    return;
  }
  // The chunked method reads whatever chunking it is given: every chunker
  // builds one under the pinned backend.
  const struct {
    const char* label;
    std::function<std::unique_ptr<Chunker>()> make;
  } chunkers[] = {
      {"sr", [] { return std::make_unique<SrTreeChunker>(50); }},
      {"rr", [] { return std::make_unique<RoundRobinChunker>(50); }},
      {"kmeans",
       [] {
         KMeansConfig config;
         config.num_clusters = 12;
         return std::make_unique<KMeansChunker>(config);
       }},
      {"bkm",
       [] {
         BalancedKMeansConfig config;
         config.base.num_clusters = 12;
         return std::make_unique<BalancedKMeansChunker>(config);
       }},
      {"bag", [] { return std::make_unique<BagChunker>(12, BagConfig{}); }},
  };
  for (const auto& chunker : chunkers) {
    ExpectBackendInvariant(name + "/" + chunker.label,
                           info->capabilities.stop_rules,
                           StaticBuilder(name, &collection, chunker.make),
                           workload);
  }
}

TEST_P(BackendMatrixTest, DynamicIndexMatchesScalar) {
  const std::string& name = GetParam();
  auto info = MethodRegistry::Global().Info(name);
  ASSERT_TRUE(info.ok());
  const Collection collection = MatrixCollection();
  ExpectBackendInvariant("dynamic/" + name, info->capabilities.stop_rules,
                         DynamicBuilder(name, &collection),
                         MatrixWorkload(collection));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendMatrixTest, ::testing::ValuesIn(RegisteredMethods()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The MaxChunks plan ranks from fp32 bounds, which round differently on
// each backend. On the matrix data, where those bounds round, every
// backend's plan must still give the full ranking's first m ranks and
// their distance bits (m in {1, 2, 8, n - 1}, batches of 1 to 9 queries).
TEST(BackendMatrixPlanTest, FloatFirstPlanEqualsFullRanking) {
  const Collection collection = MatrixCollection();
  const Workload workload = MatrixWorkload(collection);
  MemEnv env;
  auto chunking = SrTreeChunker(20).FormChunks(collection);
  ASSERT_TRUE(chunking.ok());
  auto index = ChunkIndex::Build(collection, *chunking, &env,
                                 ChunkIndexPaths::ForBase("plan"));
  ASSERT_TRUE(index.ok());
  ASSERT_GT(index->num_chunks(), 16u);
  const Searcher searcher(&*index, DiskCostModel());
  std::vector<std::span<const float>> spans;
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    spans.push_back(workload.Query(q));
  }
  ExpectFloatFirstPlansEqualFullRanking(searcher, spans, "matrix");
}

// The matrix is only as strong as the backends it compares: every x86-64
// CPU has at least one SIMD backend next to scalar. Other architectures run
// the scalar reference alone, so there is nothing to compare.
TEST(BackendMatrixCoverageTest, ComparesAtLeastOneSimdBackend) {
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_GE(SupportedBackends().size(), 2u);
#else
  GTEST_SKIP() << "no SIMD backend on this architecture";
#endif
}

}  // namespace
}  // namespace qvt

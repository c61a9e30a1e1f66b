#include "core/search_method.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/exact_scan.h"
#include "core/lsh.h"
#include "core/medrank.h"
#include "core/psphere.h"
#include "core/va_file.h"
#include "descriptor/generator.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

/// Clustered synthetic data plus a chunk index, so the context can serve
/// every registered method including "chunked".
struct MethodFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;

  explicit MethodFixture(uint64_t seed = 17) {
    GeneratorConfig config;
    config.num_images = 30;
    config.descriptors_per_image = 20;
    config.num_modes = 6;
    config.seed = seed;
    collection = GenerateCollection(config);
    SrTreeChunker chunker(80);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
  }

  MethodContext Context() const {
    MethodContext context;
    context.collection = &collection;
    context.index = &*index;
    return context;
  }
};

/// A collection engineered for exact-distance ties: `groups` distinct
/// vectors, each stored under `dupes` different descriptor ids. Ids are
/// appended in descending order so any method that merely preserves
/// insertion or scan order fails the ascending-id tie-break assertions.
Collection TieCollection(size_t groups = 12, size_t dupes = 5) {
  Collection collection;
  Rng rng(99);
  DescriptorId next_id = static_cast<DescriptorId>(groups * dupes);
  for (size_t g = 0; g < groups; ++g) {
    std::vector<float> vec(kDescriptorDim);
    for (float& v : vec) v = static_cast<float>(rng.Uniform(1000)) / 10.0f;
    for (size_t d = 0; d < dupes; ++d) {
      collection.Append(--next_id, vec);
    }
  }
  return collection;
}

void ExpectSortedByDistanceThenId(const std::vector<Neighbor>& neighbors) {
  for (size_t i = 1; i < neighbors.size(); ++i) {
    if (neighbors[i].distance == neighbors[i - 1].distance) {
      EXPECT_GT(neighbors[i].id, neighbors[i - 1].id) << "rank " << i;
    } else {
      EXPECT_GT(neighbors[i].distance, neighbors[i - 1].distance)
          << "rank " << i;
    }
  }
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

void ExpectSameCounters(const QueryTelemetry& a, const QueryTelemetry& b) {
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.index_entries_scanned, b.index_entries_scanned);
  EXPECT_EQ(a.candidates_examined, b.candidates_examined);
  EXPECT_EQ(a.descriptors_scanned, b.descriptors_scanned);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.exact, b.exact);
}

// --- registry ---------------------------------------------------------------

TEST(MethodRegistryTest, ListsAllSevenBuiltins) {
  const MethodRegistry& registry = MethodRegistry::Global();
  for (const char* name : {"chunked", "exact-scan", "lsh", "va-file",
                           "medrank", "psphere", "pq"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  const std::vector<MethodInfo> infos = registry.List();
  EXPECT_EQ(infos.size(), 7u);
  for (size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(infos[i - 1].name, infos[i].name);  // sorted listing
  }
}

TEST(MethodRegistryTest, UnknownMethodIsNotFound) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("r-tree", fx.Context());
  ASSERT_FALSE(method.ok());
  EXPECT_TRUE(method.status().IsNotFound());
  // The error names the registered methods, so the typo is self-correcting.
  EXPECT_NE(method.status().message().find("chunked"), std::string::npos);
}

TEST(MethodRegistryTest, UnknownParameterRejected) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("lsh", fx.Context(),
                                                "num_tables=4,bogus=1");
  ASSERT_FALSE(method.ok());
  EXPECT_TRUE(method.status().IsInvalidArgument());
  EXPECT_NE(method.status().message().find("bogus"), std::string::npos);
}

TEST(MethodRegistryTest, MalformedParameterValueRejected) {
  const MethodFixture fx;
  EXPECT_FALSE(MethodRegistry::Global()
                   .Create("lsh", fx.Context(), "num_tables=abc")
                   .ok());
  EXPECT_FALSE(
      MethodRegistry::Global().Create("lsh", fx.Context(), "num_tables").ok());
}

TEST(MethodRegistryTest, ParameterRangeValidation) {
  const MethodFixture fx;
  const MethodRegistry& registry = MethodRegistry::Global();
  EXPECT_FALSE(registry.Create("lsh", fx.Context(), "num_tables=0").ok());
  EXPECT_FALSE(registry.Create("va-file", fx.Context(), "bits_per_dim=9").ok());
  EXPECT_FALSE(registry.Create("va-file", fx.Context(), "bits_per_dim=0").ok());
  EXPECT_FALSE(
      registry.Create("medrank", fx.Context(), "min_frequency=0").ok());
  EXPECT_FALSE(
      registry.Create("psphere", fx.Context(), "fill_factor=0.5").ok());
}

TEST(MethodRegistryTest, MethodsRequireTheirContext) {
  MethodContext empty;
  EXPECT_FALSE(MethodRegistry::Global().Create("exact-scan", empty).ok());
  EXPECT_FALSE(MethodRegistry::Global().Create("chunked", empty).ok());
}

// --- interface contract -----------------------------------------------------

TEST(SearchMethodTest, SearchBeforePrepareFailsPrecondition) {
  const MethodFixture fx;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    auto method = MethodRegistry::Global().Create(info.name, fx.Context());
    ASSERT_TRUE(method.ok()) << info.name;
    auto result = (*method)->Search(fx.collection.Vector(0), 5);
    ASSERT_FALSE(result.ok()) << info.name;
    EXPECT_TRUE(result.status().IsFailedPrecondition()) << info.name;
  }
}

TEST(SearchMethodTest, PrepareIsIdempotent) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("lsh", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  auto first = (*method)->Search(fx.collection.Vector(7), 5);
  ASSERT_TRUE((*method)->Prepare().ok());  // second call is a no-op
  auto second = (*method)->Search(fx.collection.Vector(7), 5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameNeighbors(first->neighbors, second->neighbors);
}

// Every registered method can be constructed by name, prepared, and
// queried, and emits the unified result contract: self-query at distance 0,
// neighbors ascending by (distance, id), telemetry populated.
TEST(SearchMethodTest, EveryMethodConstructibleAndSearchable) {
  const MethodFixture fx;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    auto method = MethodRegistry::Global().Create(info.name, fx.Context());
    ASSERT_TRUE(method.ok()) << info.name;
    EXPECT_EQ((*method)->name(), info.name);
    EXPECT_FALSE((*method)->Describe().empty()) << info.name;
    ASSERT_TRUE((*method)->Prepare().ok()) << info.name;
    auto result = (*method)->Search(fx.collection.Vector(42), 5);
    ASSERT_TRUE(result.ok()) << info.name;
    ASSERT_FALSE(result->neighbors.empty()) << info.name;
    EXPECT_EQ(result->neighbors.front().id, fx.collection.Id(42))
        << info.name;
    EXPECT_DOUBLE_EQ(result->neighbors.front().distance, 0.0) << info.name;
    ExpectSortedByDistanceThenId(result->neighbors);
    const QueryTelemetry& telemetry = result->telemetry;
    EXPECT_GT(telemetry.descriptors_scanned, 0u) << info.name;
    EXPECT_GT(telemetry.bytes_read, 0u) << info.name;
    EXPECT_GE(telemetry.wall_micros,
              telemetry.plan.wall_micros + telemetry.scan.wall_micros +
                  telemetry.refine.wall_micros)
        << info.name;
    if (!info.capabilities.exact) {
      EXPECT_FALSE(telemetry.exact) << info.name;
    }

    // Non-finite coordinates are rejected on every query path.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      const auto good = fx.collection.Vector(42);
      std::vector<float> query(good.begin(), good.end());
      query[7] = bad;
      const std::string label = info.name + " with " + std::to_string(bad);
      EXPECT_TRUE((*method)->Search(query, 5).status().IsInvalidArgument())
          << label;
      if ((*method)->SupportsSharedScan()) {
        const std::vector<std::span<const float>> batch = {good, query};
        EXPECT_TRUE((*method)
                        ->SearchShared(batch, 5, StopRule::Exact(), nullptr)
                        .status()
                        .IsInvalidArgument())
            << label;
      }
    }
  }
}

TEST(SearchMethodTest, MethodsWithoutStopRulesRejectApproximateStops) {
  const MethodFixture fx;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    auto method = MethodRegistry::Global().Create(info.name, fx.Context());
    ASSERT_TRUE(method.ok()) << info.name;
    ASSERT_TRUE((*method)->Prepare().ok()) << info.name;
    auto result =
        (*method)->Search(fx.collection.Vector(0), 5, StopRule::MaxChunks(2));
    if (info.capabilities.stop_rules) {
      EXPECT_TRUE(result.ok()) << info.name;
    } else {
      ASSERT_FALSE(result.ok()) << info.name;
      EXPECT_TRUE(result.status().IsInvalidArgument()) << info.name;
    }
  }
}

// --- bit-identity with the native (pre-unification) call paths --------------

TEST(SearchMethodTest, ExactScanAdapterMatchesFreeFunction) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("exact-scan", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  for (size_t pos : {0u, 111u, 599u}) {
    auto unified = (*method)->Search(fx.collection.Vector(pos), 10);
    ASSERT_TRUE(unified.ok());
    const auto direct = ExactScan(fx.collection, fx.collection.Vector(pos), 10);
    ExpectSameNeighbors(unified->neighbors, direct);
    EXPECT_TRUE(unified->telemetry.exact);
  }
}

TEST(SearchMethodTest, LshAdapterMatchesDirectIndex) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("lsh", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  const LshIndex direct = LshIndex::Build(&fx.collection, LshConfig{});
  for (size_t pos : {3u, 250u, 417u}) {
    auto unified = (*method)->Search(fx.collection.Vector(pos), 10);
    QueryTelemetry native_telemetry;
    auto native =
        direct.Search(fx.collection.Vector(pos), 10, &native_telemetry);
    ASSERT_TRUE(unified.ok());
    ASSERT_TRUE(native.ok());
    ExpectSameNeighbors(unified->neighbors, *native);
    ExpectSameCounters(unified->telemetry, native_telemetry);
  }
}

TEST(SearchMethodTest, VaFileAdapterMatchesDirectIndex) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("va-file", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  const VaFile direct = VaFile::Build(&fx.collection, VaFileConfig{});
  for (size_t pos : {8u, 300u, 590u}) {
    auto unified = (*method)->Search(fx.collection.Vector(pos), 10);
    QueryTelemetry native_telemetry;
    auto native =
        direct.Search(fx.collection.Vector(pos), 10, &native_telemetry);
    ASSERT_TRUE(unified.ok());
    ASSERT_TRUE(native.ok());
    ExpectSameNeighbors(unified->neighbors, *native);
    ExpectSameCounters(unified->telemetry, native_telemetry);
  }
}

TEST(SearchMethodTest, MedrankAdapterMatchesDirectIndexSorted) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("medrank", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  const MedrankIndex direct =
      MedrankIndex::Build(&fx.collection, MedrankConfig{});
  for (size_t pos : {5u, 199u, 460u}) {
    auto unified = (*method)->Search(fx.collection.Vector(pos), 10);
    QueryTelemetry native_telemetry;
    auto native =
        direct.Search(fx.collection.Vector(pos), 10, &native_telemetry);
    ASSERT_TRUE(unified.ok());
    ASSERT_TRUE(native.ok());
    // The native call returns emission (rank) order; the unified contract
    // re-sorts into (distance, id) order. Same set, same telemetry.
    std::sort(native->begin(), native->end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    ExpectSameNeighbors(unified->neighbors, *native);
    ExpectSameCounters(unified->telemetry, native_telemetry);
  }
}

TEST(SearchMethodTest, PSphereAdapterMatchesDirectIndex) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("psphere", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  const PSphereTree direct =
      PSphereTree::Build(&fx.collection, PSphereConfig{});
  for (size_t pos : {1u, 333u, 577u}) {
    auto unified = (*method)->Search(fx.collection.Vector(pos), 10);
    QueryTelemetry native_telemetry;
    auto native =
        direct.Search(fx.collection.Vector(pos), 10, &native_telemetry);
    ASSERT_TRUE(unified.ok());
    ASSERT_TRUE(native.ok());
    ExpectSameNeighbors(unified->neighbors, *native);
    ExpectSameCounters(unified->telemetry, native_telemetry);
  }
}

TEST(SearchMethodTest, ChunkedAdapterMatchesDirectSearcher) {
  const MethodFixture fx;
  auto method = MethodRegistry::Global().Create("chunked", fx.Context());
  ASSERT_TRUE(method.ok());
  ASSERT_TRUE((*method)->Prepare().ok());
  const Searcher searcher(&*fx.index, DiskCostModel());
  for (size_t pos : {2u, 77u, 512u}) {
    for (const StopRule& stop :
         {StopRule::Exact(), StopRule::MaxChunks(2)}) {
      auto unified = (*method)->Search(fx.collection.Vector(pos), 10, stop);
      auto native = searcher.Search(fx.collection.Vector(pos), 10, stop);
      ASSERT_TRUE(unified.ok());
      ASSERT_TRUE(native.ok());
      ExpectSameNeighbors(unified->neighbors, native->neighbors);
      EXPECT_EQ(unified->telemetry.chunks_read,
                native->telemetry.chunks_read);
      EXPECT_EQ(unified->telemetry.descriptors_scanned,
                native->telemetry.descriptors_scanned);
      EXPECT_EQ(unified->telemetry.model_micros,
                native->telemetry.model_micros);
      EXPECT_EQ(unified->telemetry.exact, native->telemetry.exact);
    }
  }
}

// --- tie-break determinism (distance ties resolve by ascending id) ----------

// Each method queried with an exact member of a duplicated-vector group must
// order the zero-distance ties (and every later tie group it reports) by
// ascending descriptor id — the KnnResultSet tie-break — independent of
// insertion order, scan order, or hashing.
TEST(TieBreakTest, AllMethodsOrderDistanceTiesByAscendingId) {
  const Collection ties = TieCollection();
  MethodContext context;
  context.collection = &ties;
  for (const char* name : {"exact-scan", "lsh", "va-file", "medrank",
                           "psphere"}) {
    auto method = MethodRegistry::Global().Create(name, context);
    ASSERT_TRUE(method.ok()) << name;
    ASSERT_TRUE((*method)->Prepare().ok()) << name;
    auto result = (*method)->Search(ties.Vector(0), 10);
    ASSERT_TRUE(result.ok()) << name;
    ASSERT_FALSE(result->neighbors.empty()) << name;
    ExpectSortedByDistanceThenId(result->neighbors);
  }
}

// For methods that always recall the full duplicate group, the group's ids
// must come back exactly, in ascending order — the same answer an exact
// scan pins.
TEST(TieBreakTest, ExactMethodsReturnFullTieGroupInIdOrder) {
  const size_t dupes = 5;
  const Collection ties = TieCollection(/*groups=*/12, dupes);
  MethodContext context;
  context.collection = &ties;
  const auto truth = ExactScan(ties, ties.Vector(0), dupes);
  ASSERT_EQ(truth.size(), dupes);
  for (size_t i = 0; i < dupes; ++i) {
    EXPECT_DOUBLE_EQ(truth[i].distance, 0.0) << "rank " << i;
    if (i > 0) {
      EXPECT_GT(truth[i].id, truth[i - 1].id) << "rank " << i;
    }
  }
  // The VA-file is exact, and a P-Sphere tree with few spheres and a high
  // fill factor stores every vector in each sphere — both must reproduce
  // the scan's tie order exactly.
  for (const auto& [name, params] :
       {std::pair<const char*, const char*>{"va-file", ""},
        {"psphere", "num_spheres=4,fill_factor=4"}}) {
    auto method = MethodRegistry::Global().Create(name, context, params);
    ASSERT_TRUE(method.ok()) << name;
    ASSERT_TRUE((*method)->Prepare().ok()) << name;
    auto result = (*method)->Search(ties.Vector(0), dupes);
    ASSERT_TRUE(result.ok()) << name;
    ExpectSameNeighbors(result->neighbors, truth);
  }
}

// Two independently built instances of the same seeded method must agree on
// tie-laden data — randomized structures (hash tables, projection lines,
// sphere samples) are deterministic in their seeds.
TEST(TieBreakTest, RebuiltInstancesAgreeOnTies) {
  const Collection ties = TieCollection();
  MethodContext context;
  context.collection = &ties;
  for (const char* name : {"lsh", "va-file", "medrank", "psphere"}) {
    auto first = MethodRegistry::Global().Create(name, context);
    auto second = MethodRegistry::Global().Create(name, context);
    ASSERT_TRUE(first.ok()) << name;
    ASSERT_TRUE(second.ok()) << name;
    ASSERT_TRUE((*first)->Prepare().ok()) << name;
    ASSERT_TRUE((*second)->Prepare().ok()) << name;
    for (size_t pos : {0u, 17u, 43u}) {
      auto ra = (*first)->Search(ties.Vector(pos), 8);
      auto rb = (*second)->Search(ties.Vector(pos), 8);
      ASSERT_TRUE(ra.ok()) << name;
      ASSERT_TRUE(rb.ok()) << name;
      ExpectSameNeighbors(ra->neighbors, rb->neighbors);
    }
  }
}


TEST(MethodRegistryTest, RegisterRejectsEmptyNameNullFactoryAndDuplicates) {
  MethodRegistry registry;
  MethodInfo info;
  info.name = "probe";
  auto factory = [](const MethodContext&, MethodOptions&)
      -> StatusOr<std::unique_ptr<SearchMethod>> {
    return Status::Unimplemented("probe");
  };

  MethodInfo nameless = info;
  nameless.name.clear();
  EXPECT_TRUE(registry.Register(nameless, factory).IsInvalidArgument());
  EXPECT_TRUE(registry.Register(info, nullptr).IsInvalidArgument());

  ASSERT_TRUE(registry.Register(info, factory).ok());
  // A duplicate never overwrites the existing entry.
  const Status dup = registry.Register(info, factory);
  EXPECT_TRUE(dup.IsAlreadyExists());
  EXPECT_NE(dup.ToString().find("probe"), std::string::npos);
  EXPECT_TRUE(registry.Contains("probe"));
}

TEST(MethodRegistryTest, EmptyNameLookupsFailCleanly) {
  MethodContext context;
  EXPECT_TRUE(
      MethodRegistry::Global().Create("", context).status().IsInvalidArgument());
  EXPECT_TRUE(MethodRegistry::Global().Info("").status().IsNotFound() ||
              MethodRegistry::Global().Info("").status().IsInvalidArgument());
  ShardBuildContext shard_context;
  EXPECT_FALSE(MethodRegistry::Global().BuildShard("", shard_context).ok());
}

TEST(MethodRegistryTest, InfoReturnsCapabilitiesAndListsOnMiss) {
  auto info = MethodRegistry::Global().Info("exact-scan");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->capabilities.exact);
  const Status miss = MethodRegistry::Global().Info("nope").status();
  EXPECT_TRUE(miss.IsNotFound());
  // The error names the registered methods, so typos are self-diagnosing.
  EXPECT_NE(miss.ToString().find("chunked"), std::string::npos);
}

TEST(SearchMethodTest, ResidentBytesReportedPerMethod) {
  MethodFixture fixture;
  MethodContext context = fixture.Context();
  // Exact scan keeps no auxiliary structures (the virtual default).
  auto exact = MethodRegistry::Global().Create("exact-scan", context);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE((*exact)->Prepare().ok());
  EXPECT_EQ((*exact)->ResidentBytes(), 0u);
  // Index-carrying methods report a positive footprint once prepared.
  for (const char* name : {"chunked", "lsh", "va-file", "medrank", "psphere"}) {
    auto method = MethodRegistry::Global().Create(name, context);
    ASSERT_TRUE(method.ok()) << name;
    ASSERT_TRUE((*method)->Prepare().ok()) << name;
    EXPECT_GT((*method)->ResidentBytes(), 0u) << name;
  }
}

TEST(ShardBuildTest, GenericPathBuildsAnyMethodOverASubset) {
  MethodFixture fixture;
  ShardBuildContext context;
  context.data = std::make_shared<Collection>(fixture.collection);
  context.env = &fixture.env;
  context.artifact_base = "shard-generic";
  for (const char* name : {"exact-scan", "lsh", "va-file", "medrank"}) {
    auto shard = MethodRegistry::Global().BuildShard(name, context);
    ASSERT_TRUE(shard.ok()) << name << ": " << shard.status().ToString();
    EXPECT_EQ(shard->data.get(), context.data.get()) << name;
    auto result =
        shard->method->Search(fixture.collection.Vector(0), 3);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->neighbors[0].id, fixture.collection.Id(0)) << name;
  }
  // Null data is rejected before any factory runs.
  ShardBuildContext empty;
  empty.env = &fixture.env;
  EXPECT_TRUE(MethodRegistry::Global()
                  .BuildShard("exact-scan", empty)
                  .status()
                  .IsInvalidArgument());
}

TEST(ShardBuildTest, ChunkedShardBuildsAndReopensArtifacts) {
  MethodFixture fixture;
  ShardBuildContext context;
  context.data = std::make_shared<Collection>(fixture.collection);
  context.env = &fixture.env;
  context.artifact_base = "shard-chunked";
  context.target_chunk_size = 50;
  auto built = MethodRegistry::Global().BuildShard("chunked", context);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_NE(built->index, nullptr);
  EXPECT_EQ(built->index->total_descriptors(), fixture.collection.size());
  auto first = built->method->Search(fixture.collection.Vector(5), 4);
  ASSERT_TRUE(first.ok());

  // Reopen from the artifacts the build wrote; answers are identical.
  context.reuse_artifacts = true;
  auto reopened = MethodRegistry::Global().BuildShard("chunked", context);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto second = reopened->method->Search(fixture.collection.Vector(5), 4);
  ASSERT_TRUE(second.ok());
  ExpectSameNeighbors(first->neighbors, second->neighbors);
}


}  // namespace
}  // namespace qvt

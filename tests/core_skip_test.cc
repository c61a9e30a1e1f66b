// Skip, don't read (DESIGN.md): a query never demands a chunk that its
// limit (k-th distance, capped by its bound) already rules out. Under every
// stop rule, both executors, 1 and 4 threads and behind the dynamic layer:
// answers equal the paper rule's (which reads every rank it reaches) bit
// for bit, the ranks skipped are exactly those the reference's bound test
// rejects, and unbounded kMaxChunks and the time budget skip nothing.

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/range_analysis.h"
#include "descriptor/workload.h"
#include "dynamic/dynamic_index.h"
#include "kernel_backends.h"
#include "search_reference.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

constexpr size_t kK = 10;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Generated rows centered on each dimension's mean, dimension d scaled by
/// 0.7^d: the kernel sums round and the coordinates straddle zero, so any
/// row compared differently would show in the distance bits.
Collection SpreadCollection() {
  GeneratorConfig config;
  config.num_images = 60;
  config.descriptors_per_image = 15;
  config.num_modes = 6;
  config.seed = 43;
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

/// Dataset queries (a match exists) followed by space queries (none does).
Workload SpreadWorkload(const Collection& collection) {
  Rng rng(47);
  Workload workload = MakeDatasetQueries(collection, 8, &rng);
  const Workload space =
      MakeSpaceQueries(ComputeTrimmedRanges(collection), 8, &rng);
  workload.queries.insert(workload.queries.end(), space.queries.begin(),
                          space.queries.end());
  return workload;
}

struct Case {
  const char* name;
  StopRule rule;
  bool bounded;
};

/// Every stop rule, unbounded and under a caller's bound; `budget` is the
/// time budget in model microseconds.
std::vector<Case> Cases(int64_t budget) {
  const StopRule rules[] = {StopRule::Exact(),
                            StopRule::EpsilonApproximate(0.5),
                            StopRule::MaxChunks(6),
                            StopRule::TimeBudget(budget)};
  const char* names[] = {"exact", "epsilon", "max-chunks", "time-budget"};
  std::vector<Case> cases;
  for (size_t i = 0; i < std::size(rules); ++i) {
    cases.push_back({names[i], rules[i], false});
    cases.push_back({names[i], rules[i], true});
  }
  return cases;
}

/// True for the cases that skip no rank: the time budget, and kMaxChunks
/// without a bound.
bool SkipsNothing(const Case& c) {
  return c.rule.kind == StopRule::Kind::kTimeBudget ||
         (c.rule.kind == StopRule::Kind::kMaxChunks && !c.bounded);
}

/// The reference under the skip rule, checked against the paper rule: the
/// same answer bit for bit, the same exact verdict and dead rows refused,
/// and the paper's reads are exactly the ranks read or skipped.
MethodResult CheckedReference(const Searcher& searcher,
                              const DiskCostModel& model,
                              std::span<const float> query, size_t k,
                              const StopRule& rule, ReferenceOptions options,
                              const std::string& label) {
  options.skip = false;
  const MethodResult paper =
      RankOrderReference(searcher, model, query, k, rule, options);
  options.skip = true;
  const MethodResult reference =
      RankOrderReference(searcher, model, query, k, rule, options);
  ExpectSameBits(reference.neighbors, paper.neighbors, label + " vs paper");
  EXPECT_EQ(reference.telemetry.exact, paper.telemetry.exact) << label;
  EXPECT_EQ(reference.telemetry.tombstones_filtered,
            paper.telemetry.tombstones_filtered)
      << label;
  EXPECT_EQ(paper.telemetry.chunks_skipped, 0u) << label;
  EXPECT_EQ(
      reference.telemetry.chunks_read + reference.telemetry.chunks_skipped,
      paper.telemetry.chunks_read)
      << label;
  EXPECT_LE(reference.telemetry.model_micros, paper.telemetry.model_micros)
      << label;
  return reference;
}

TEST(SkipTest, StaticSkipsExactlyTheReferenceRanksAndAnswersThePaperRule) {
  MemEnv env;
  const Collection collection = SpreadCollection();
  SrTreeChunker chunker(40);
  auto chunking = chunker.FormChunks(collection);
  ASSERT_TRUE(chunking.ok());
  auto index = ChunkIndex::Build(collection, *chunking, &env,
                                 ChunkIndexPaths::ForBase("skip"));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_GT(index->num_chunks(), 12u);
  const DiskCostModel model;
  const Searcher searcher(&*index, model);
  const Workload workload = SpreadWorkload(collection);
  const size_t nq = workload.num_queries();

  const MethodResult probe = RankOrderReference(
      searcher, model, workload.Query(0), kK, StopRule::Exact(),
      {.skip = false});
  const std::vector<Case> cases = Cases(probe.telemetry.model_micros / 2);

  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    for (const Case& c : cases) {
      const std::string name = std::string(kernels::BackendName(backend)) +
                               "/" + c.name + (c.bounded ? "-bounded" : "");
      // A bound per query, off its unbounded paper answer (rank q % k;
      // every fourth query +inf).
      std::vector<double> bounds;
      if (c.bounded) {
        for (size_t q = 0; q < nq; ++q) {
          const MethodResult free = RankOrderReference(
              searcher, model, workload.Query(q), kK, c.rule,
              {.skip = false});
          bounds.push_back(q % 4 == 3 || free.neighbors.empty()
                               ? kInf
                               : free.neighbors[q % free.neighbors.size()]
                                     .distance);
        }
      }
      uint64_t skipped = 0;
      std::vector<MethodResult> references;
      for (size_t q = 0; q < nq; ++q) {
        const std::string label = name + " query " + std::to_string(q);
        const std::span<const float> query = workload.Query(q);
        const double bound = c.bounded ? bounds[q] : kInf;
        std::vector<size_t> ranks;
        references.push_back(CheckedReference(
            searcher, model, query, kK, c.rule,
            {.bound = bound, .skipped_ranks = &ranks}, label));
        const MethodResult& reference = references.back();
        skipped += reference.telemetry.chunks_skipped;
        if (SkipsNothing(c)) {
          EXPECT_TRUE(ranks.empty()) << label;
        }
        if (c.rule.kind == StopRule::Kind::kExact && c.rule.epsilon == 0.0) {
          ExpectSameBits(reference.neighbors,
                         Within(ExactScan(collection, query, kK), bound),
                         label + " vs ExactScan");
        }
        if (c.bounded) {
          const std::vector<std::span<const float>> one = {query};
          const std::vector<double> one_bound = {bound};
          auto got = searcher.SearchShared(one, kK, c.rule, nullptr, {},
                                           one_bound);
          ASSERT_TRUE(got.ok()) << label;
          ExpectMatchesReference(got->front(), reference, label);
          continue;
        }
        // A lone query reports every rank read or skipped, in rank order:
        // the skipped ranks are the reference's, and the paper's model
        // clock is rebuilt from the skip events' charges.
        std::vector<size_t> observed;
        size_t next_rank = 0;
        int64_t skipped_micros = 0;
        const SearchObserver observer = [&](const SearchProgress& progress) {
          EXPECT_EQ(progress.rank, next_rank++) << label;
          if (progress.rank_skipped) {
            observed.push_back(progress.rank);
            skipped_micros += progress.skipped_model_micros;
          }
        };
        auto alone = searcher.Search(query, kK, c.rule, observer);
        ASSERT_TRUE(alone.ok()) << label;
        ExpectMatchesReference(*alone, reference, label + " (Search)");
        EXPECT_EQ(observed, ranks) << label;
        EXPECT_EQ(alone->telemetry.model_micros + skipped_micros,
                  RankOrderReference(searcher, model, query, kK, c.rule,
                                     {.skip = false})
                      .telemetry.model_micros)
            << label;
      }
      if (!SkipsNothing(c)) {
        EXPECT_GT(skipped, 0u) << name;
      }

      // Both executors at one and four threads answer as the reference.
      const FixedArgsChunkedMethod method(&searcher, &workload, {}, bounds);
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        for (const bool shared_scan : {true, false}) {
          const std::string label = name + "/t" + std::to_string(threads) +
                                    (shared_scan ? "/chunk-major"
                                                 : "/query-major");
          BatchSearcher batcher(&method, threads, shared_scan);
          auto batch = batcher.SearchAll(workload, kK, c.rule);
          ASSERT_TRUE(batch.ok()) << label;
          for (size_t q = 0; q < nq; ++q) {
            ExpectMatchesReference(batch->results[q], references[q],
                                   label + " query " + std::to_string(q));
          }
          EXPECT_EQ(batch->totals.chunks_skipped, skipped) << label;
          if (shared_scan) {
            // A skipped rank is never attached to a scheduled chunk.
            EXPECT_EQ(batch->shared.chunk_attachments,
                      batch->totals.chunks_read)
                << label;
          }
        }
      }
    }
  }
}

/// A dynamic index over chunked shards, with tombstones, and the same
/// shards built on the side so the reference can rank them itself.
struct DynamicFixture {
  static constexpr size_t kShardRows[] = {300, 250, 200};
  MemEnv env;
  MemEnv reference_env;
  Collection data = SpreadCollection();
  std::unique_ptr<DynamicIndex> index;
  std::vector<MethodShard> shards;
  Collection buffer_rows;
  std::vector<DescriptorId> deleted;  ///< ascending

  DynamicFixture() {
    DynamicOptions options;
    options.method = "chunked";
    options.extension.buffer_capacity = 1000;
    options.extension.scale_factor = 100;
    options.target_chunk_size = 25;
    auto created = DynamicIndex::Create(&env, "dyn", options);
    QVT_CHECK_OK(created.status());
    index = std::move(created).value();
    size_t next = 0;
    for (size_t s = 0; s <= std::size(kShardRows); ++s) {
      const size_t rows =
          s < std::size(kShardRows) ? kShardRows[s] : data.size() - next;
      Collection part(data.dim());
      for (size_t i = 0; i < rows; ++i, ++next) {
        part.Append(data.Id(next), data.Vector(next), data.Image(next));
        QVT_CHECK_OK(index->Insert(data.Id(next), data.Vector(next)));
      }
      if (s == std::size(kShardRows)) {
        buffer_rows = std::move(part);
        break;
      }
      QVT_CHECK_OK(index->Flush());
      ShardBuildContext context;
      context.data = std::make_shared<Collection>(std::move(part));
      context.env = &reference_env;
      context.artifact_base = "ref" + std::to_string(s);
      context.target_chunk_size = options.target_chunk_size;
      auto shard = MethodRegistry::Global().BuildShard("chunked", context);
      QVT_CHECK_OK(shard.status());
      shards.push_back(std::move(shard).value());
    }
    for (DescriptorId id = 5; id < data.size(); id += 7) {
      QVT_CHECK_OK(index->Delete(id));
      deleted.push_back(id);
    }
  }
};

TEST(SkipTest, DynamicShardsSkipUnderTheirRunningBound) {
  const DynamicFixture fx;
  ASSERT_EQ(fx.index->num_shards(), std::size(fx.kShardRows));
  const DiskCostModel model;
  std::vector<std::unique_ptr<Searcher>> searchers;
  for (const MethodShard& shard : fx.shards) {
    searchers.push_back(std::make_unique<Searcher>(shard.index.get(), model));
  }
  const Workload workload = SpreadWorkload(fx.data);
  const size_t nq = workload.num_queries();

  const MethodResult probe = RankOrderReference(
      *searchers.front(), model, workload.Query(0), kK, StopRule::Exact(),
      {.skip = false});
  for (const Case& c : Cases(probe.telemetry.model_micros / 2)) {
    if (c.bounded) continue;  // the dynamic layer sets its own bounds
    // The dynamic layer, spelled out: shards in order, each under the
    // running merged k-th with the dead ids, then the buffer.
    std::vector<MethodResult> references(nq);
    std::vector<std::vector<uint64_t>> refused(nq);
    uint64_t skipped = 0;
    for (size_t q = 0; q < nq; ++q) {
      const std::string label =
          std::string(c.name) + " query " + std::to_string(q);
      const std::span<const float> query = workload.Query(q);
      KnnResultSet merged(kK);
      QueryTelemetry& t = references[q].telemetry;
      t.exact = true;
      for (size_t s = 0; s < fx.shards.size(); ++s) {
        const MethodResult sub = CheckedReference(
            *searchers[s], model, query,
            std::min(kK, fx.shards[s].data->size()), c.rule,
            {.bound = merged.KthDistance(), .excluded = fx.deleted},
            label + " shard " + std::to_string(s));
        for (const Neighbor& n : sub.neighbors) merged.Insert(n.id, n.distance);
        t.chunks_read += sub.telemetry.chunks_read;
        t.chunks_skipped += sub.telemetry.chunks_skipped;
        t.model_micros += sub.telemetry.model_micros;
        t.exact = t.exact && sub.telemetry.exact;
        refused[q].push_back(sub.telemetry.tombstones_filtered);
      }
      for (const Neighbor& n :
           ExactScan(fx.buffer_rows, query, kK, fx.deleted)) {
        merged.Insert(n.id, n.distance);
      }
      references[q].neighbors = merged.Sorted();
      skipped += t.chunks_skipped;
    }
    if (c.rule.kind == StopRule::Kind::kTimeBudget) {
      EXPECT_EQ(skipped, 0u) << c.name;
    } else {
      EXPECT_GT(skipped, 0u) << c.name;
    }

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (const bool shared_scan : {true, false}) {
        const std::string label = std::string(c.name) + "/t" +
                                  std::to_string(threads) +
                                  (shared_scan ? "/chunk-major"
                                               : "/query-major");
        BatchSearcher batcher(fx.index.get(), threads, shared_scan);
        auto batch = batcher.SearchAll(workload, kK, c.rule);
        ASSERT_TRUE(batch.ok()) << label;
        for (size_t q = 0; q < nq; ++q) {
          const std::string at = label + " query " + std::to_string(q);
          const MethodResult& got = batch->results[q];
          const QueryTelemetry& want = references[q].telemetry;
          ExpectSameBits(got.neighbors, references[q].neighbors, at);
          EXPECT_EQ(got.telemetry.chunks_read, want.chunks_read) << at;
          EXPECT_EQ(got.telemetry.chunks_skipped, want.chunks_skipped) << at;
          EXPECT_EQ(got.telemetry.model_micros, want.model_micros) << at;
          EXPECT_EQ(got.telemetry.exact, want.exact) << at;
          // Slot 0 is the buffer's; the shards follow in order. A dead
          // row is counted only when it beats the k-th of the moment, so
          // the count follows the order a query's chunks are swept in:
          // rank order, except in a kMaxChunks chunk-major schedule.
          ASSERT_EQ(got.shards.size(), fx.shards.size() + 1) << at;
          if (shared_scan && c.rule.kind == StopRule::Kind::kMaxChunks) {
            continue;
          }
          for (size_t s = 0; s < fx.shards.size(); ++s) {
            EXPECT_EQ(got.shards[s + 1].tombstones_filtered, refused[q][s])
                << at << " shard " << s;
          }
        }
      }
    }
  }
}

/// Query at the origin, k = 2, rows on the diagonal u = (1, ..., 1):
///   chunk 0: id 1 at -0.8a·u and id 2 at a·u (ranked first);
///   chunk 1: id 0 at a·u and id 5 at (2b - a)·u (centroid b·u).
/// Id 0 ties id 2 at the k-th distance with a smaller id, so it must
/// enter, under a bound equal to that distance too. Both bound tests of
/// chunk 1 sit exactly on that distance: in exact arithmetic the sphere
/// bound |c| - r is a|u| and the rectangle gap sum is id 0's own squared
/// distance. Only their margins keep chunk 1 read.
struct TieOnTheBound {
  MemEnv env;
  std::optional<ChunkIndex> index;
  double kth = 0.0;        ///< id 0's (and id 2's) distance
  double kernel_sq = 0.0;  ///< id 0's kernel squared distance
  double sphere = 0.0;     ///< chunk 1's computed cd - r, no slack

  TieOnTheBound(float a, float b) {
    Collection collection;
    const auto row = [](float x) {
      return std::vector<float>(kDescriptorDim, x);
    };
    collection.Append(1, row(-0.8f * a), 0);
    collection.Append(2, row(a), 0);
    collection.Append(0, row(a), 0);
    collection.Append(5, row(2 * b - a), 0);
    ChunkingResult chunking;
    chunking.chunks = {{0, 1}, {2, 3}};
    auto built = ChunkIndex::Build(collection, chunking, &env,
                                   ChunkIndexPaths::ForBase("tie"));
    QVT_CHECK_OK(built.status());
    index.emplace(std::move(built).value());
    const std::vector<float> query(kDescriptorDim, 0.0f);
    const std::vector<float> id0 = row(a);
    kernels::BatchSquaredDistanceAbandon(id0.data(), 1, kDescriptorDim, query,
                                         kInf, &kernel_sq);
    kth = std::sqrt(kernel_sq);
    const Searcher searcher(&*index, DiskCostModel());
    SearchScratch scratch;
    searcher.RankChunks(query, scratch);
    sphere = scratch.centroid_distance[1] - index->radius(1);
  }

  /// Ids answered under MaxChunks(2) with the bound at the k-th.
  std::vector<DescriptorId> Answer() const {
    const Searcher searcher(&*index, DiskCostModel());
    const std::vector<float> query(kDescriptorDim, 0.0f);
    const std::vector<std::span<const float>> one = {query};
    const std::vector<double> bound = {kth};
    auto got =
        searcher.SearchShared(one, 2, StopRule::MaxChunks(2), nullptr, {},
                              bound);
    QVT_CHECK_OK(got.status());
    std::vector<DescriptorId> ids;
    for (const Neighbor& n : got->front().neighbors) ids.push_back(n.id);
    return ids;
  }
};

// The sphere test's slack: a computed cd - r that rounds above the row's
// computed distance must not skip the chunk.
TEST(SkipTest, SphereSlackKeepsATiedRowWhoseBoundRoundsAbove) {
  bool found = false;
  for (int i = 1; i <= 64 && !found; ++i) {
    for (int j = 1; j <= 16 && !found; ++j) {
      const float a = 1.0f + static_cast<float>(i) / 64.0f;
      const float b = a + static_cast<float>(j) / 8.0f;
      const TieOnTheBound fx(a, b);
      if (!(fx.sphere > fx.kth)) continue;
      found = true;
      SCOPED_TRACE("a=" + std::to_string(a) + " b=" + std::to_string(b));
      EXPECT_EQ(fx.Answer(), (std::vector<DescriptorId>{1, 0}));
    }
  }
  ASSERT_TRUE(found) << "no (a, b) rounds the sphere bound above the row";
}

// The rectangle test's threshold: a gap sum equal to the row's kernel value
// exceeds the squared k-th when sqrt then square rounds down, so it must be
// held to the inflated AbandonThreshold, not to kth * kth.
TEST(SkipTest, RectangleHeldToTheInflatedThreshold) {
  bool found = false;
  for (int i = 1; i <= 256 && !found; ++i) {
    const float a = 1.0f + static_cast<float>(i) / 256.0f;
    const TieOnTheBound fx(a, a + 1.0f);
    if (!(fx.kth * fx.kth < fx.kernel_sq) || fx.sphere > fx.kth) continue;
    found = true;
    SCOPED_TRACE("a=" + std::to_string(a));
    EXPECT_EQ(fx.Answer(), (std::vector<DescriptorId>{1, 0}));
  }
  ASSERT_TRUE(found) << "no a rounds the squared k-th below the row";
}

}  // namespace
}  // namespace qvt

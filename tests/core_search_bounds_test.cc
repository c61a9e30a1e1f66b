// The per-query bound of Searcher::SearchShared ("the caller already holds
// k neighbors no farther than bounds[q]"): the bounded answer is the
// unbounded one filtered to distance <= bound, ties at the bound kept, with
// chunks_read and the model clock unchanged under the rules that do not
// read the k-th distance; the exact rule stays exact and may read fewer
// chunks. The fixture duplicates rows, so ties at the bound occur.

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "search_reference.h"
#include "util/logging.h"

namespace qvt {
namespace {

constexpr size_t kK = 10;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct BoundsFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  std::vector<std::vector<float>> queries;

  BoundsFixture() {
    GeneratorConfig config;
    config.num_images = 40;
    config.descriptors_per_image = 25;
    config.num_modes = 8;
    config.seed = 71;
    const Collection generated = GenerateCollection(config);
    // Every third row appears twice under two ids: exact-distance ties.
    for (size_t i = 0; i < generated.size(); ++i) {
      collection.Append(generated.Id(i), generated.Vector(i),
                        generated.Image(i));
      if (i % 3 == 0) {
        collection.Append(static_cast<DescriptorId>(100000 + i),
                          generated.Vector(i), generated.Image(i));
      }
    }
    SrTreeChunker chunker(80);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());
    // Off-grid queries near stored rows: non-zero neighbor distances.
    for (size_t q = 0; q < 32; ++q) {
      const auto v = generated.Vector((q * 53) % generated.size());
      std::vector<float> query(v.begin(), v.end());
      query[q % query.size()] += 0.5f + 0.25f * static_cast<float>(q % 4);
      queries.push_back(std::move(query));
    }
  }

  std::vector<std::span<const float>> Spans() const {
    return {queries.begin(), queries.end()};
  }
};

/// `answer` filtered to distance <= bound.
std::vector<Neighbor> Within(const std::vector<Neighbor>& answer,
                             double bound) {
  std::vector<Neighbor> out;
  for (const Neighbor& n : answer) {
    if (n.distance <= bound) out.push_back(n);
  }
  return out;
}

void ExpectSameBits(const std::vector<Neighbor>& got,
                    const std::vector<Neighbor>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance,
                          sizeof(double)),
              0)
        << label << " rank " << i;
  }
}

/// One bound per query, read off its unbounded answer: at a tie between
/// two neighbors where the answer has one (so a tied row sits exactly on
/// the bound), else at rank q % k; every fourth query gets +inf.
std::vector<double> BoundsFrom(const std::vector<MethodResult>& unbounded,
                               size_t* ties) {
  std::vector<double> bounds;
  for (size_t q = 0; q < unbounded.size(); ++q) {
    const std::vector<Neighbor>& n = unbounded[q].neighbors;
    if (q % 4 == 3 || n.empty()) {
      bounds.push_back(kInf);
      continue;
    }
    size_t rank = q % n.size();
    for (size_t i = 0; i + 1 < n.size(); ++i) {
      if (n[i].distance > 0.0 && n[i].distance == n[i + 1].distance) {
        rank = i;
        ++*ties;
        break;
      }
    }
    bounds.push_back(n[rank].distance);
  }
  return bounds;
}

TEST(SearchBoundsTest, BoundedAnswerIsTheUnboundedOneWithinTheBound) {
  const BoundsFixture fx;
  const DiskCostModel model;
  const Searcher searcher(&*fx.index, model);
  const std::vector<std::span<const float>> queries = fx.Spans();
  const size_t num_chunks = fx.index->num_chunks();
  ASSERT_GT(num_chunks, 8u);

  auto probe = searcher.Search(queries[0], kK, StopRule::Exact());
  ASSERT_TRUE(probe.ok());
  const int64_t budget = probe->telemetry.model_micros / 2;
  ASSERT_GT(budget, 0);

  const struct {
    const char* name;
    StopRule rule;
  } rules[] = {
      {"max-chunks-1", StopRule::MaxChunks(1)},
      {"max-chunks-8", StopRule::MaxChunks(8)},
      {"max-chunks-n", StopRule::MaxChunks(num_chunks)},
      {"exact", StopRule::Exact()},
      {"epsilon", StopRule::EpsilonApproximate(0.5)},
      {"time-budget", StopRule::TimeBudget(budget)},
  };
  size_t ties = 0;
  size_t fewer_chunks = 0;
  uint64_t skipped = 0;
  // SearchShared's bounds reach the searcher through BatchSearcher, whose
  // threads run contiguous query slices.
  const Workload workload = ToWorkload(queries);
  const FixedArgsChunkedMethod unbounded_method(&searcher, &workload, {});
  for (const auto& r : rules) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      const std::string label =
          std::string(r.name) + "/t" + std::to_string(threads);
      BatchSearcher unbounded_batcher(&unbounded_method, threads);
      auto unbounded = unbounded_batcher.SearchAll(workload, kK, r.rule);
      ASSERT_TRUE(unbounded.ok()) << label;
      const std::vector<double> bounds = BoundsFrom(unbounded->results, &ties);
      const FixedArgsChunkedMethod bounded_method(&searcher, &workload, {},
                                                  bounds);
      BatchSearcher bounded_batcher(&bounded_method, threads);
      auto bounded = bounded_batcher.SearchAll(workload, kK, r.rule);
      ASSERT_TRUE(bounded.ok()) << label;
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string at = label + " query " + std::to_string(q);
        const MethodResult& got = bounded->results[q];
        const MethodResult& free = unbounded->results[q];
        skipped += got.telemetry.sweeps_skipped;
        switch (r.rule.kind) {
          case StopRule::Kind::kMaxChunks:
          case StopRule::Kind::kTimeBudget:
            // The scanned set does not depend on the k-th distance.
            ExpectSameBits(got.neighbors, Within(free.neighbors, bounds[q]),
                           at);
            EXPECT_EQ(got.telemetry.chunks_read, free.telemetry.chunks_read)
                << at;
            EXPECT_EQ(got.telemetry.model_micros,
                      free.telemetry.model_micros)
                << at;
            break;
          case StopRule::Kind::kExact:
            EXPECT_LE(got.telemetry.chunks_read, free.telemetry.chunks_read)
                << at;
            fewer_chunks +=
                got.telemetry.chunks_read < free.telemetry.chunks_read;
            if (r.rule.epsilon == 0.0) {
              EXPECT_TRUE(got.telemetry.exact) << at;
              ExpectSameBits(got.neighbors, Within(free.neighbors, bounds[q]),
                             at);
              ExpectSameBits(
                  got.neighbors,
                  Within(ExactScan(fx.collection, queries[q], kK), bounds[q]),
                  at + " vs ExactScan");
            } else {
              // The epsilon rule may stop earlier under a bound (its test
              // reads min(k-th, bound)); what it read is a rank-order
              // prefix, answered exactly as an unbounded scan of that
              // prefix filtered to the bound.
              auto prefix = searcher.Search(
                  queries[q], kK,
                  StopRule::MaxChunks(got.telemetry.chunks_read));
              ASSERT_TRUE(prefix.ok()) << at;
              ExpectSameBits(got.neighbors,
                             Within(prefix->neighbors, bounds[q]), at);
            }
            break;
        }
      }
    }
  }
  // The fixture really puts tied rows on the bound, and the exact rule
  // really stops earlier for some query.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(fewer_chunks, 0u);
  // Chunk-level abandon fired on bounded queries, so the identities above
  // cover skipped sweeps.
  EXPECT_GT(skipped, 0u);
}

TEST(SearchBoundsTest, ZeroBoundKeepsOnlyExactDuplicates) {
  const BoundsFixture fx;
  const Searcher searcher(&*fx.index, DiskCostModel());
  // A stored row queried as itself: its duplicate (if any) ties at 0.
  const std::span<const float> row = fx.collection.Vector(0);
  const std::vector<std::span<const float>> queries = {row};
  const std::vector<double> bounds = {0.0};
  auto bounded = searcher.SearchShared(queries, kK, StopRule::Exact(), nullptr,
                                       {}, bounds);
  ASSERT_TRUE(bounded.ok());
  const MethodResult& got = bounded->front();
  EXPECT_TRUE(got.telemetry.exact);
  ExpectSameBits(got.neighbors,
                 Within(ExactScan(fx.collection, row, kK), 0.0), "zero");
  EXPECT_EQ(got.neighbors.size(), 2u);  // row 0 and its copy
}

TEST(SearchBoundsTest, BadBoundsAreRejected) {
  const BoundsFixture fx;
  const Searcher searcher(&*fx.index, DiskCostModel());
  const std::vector<std::span<const float>> queries = fx.Spans();
  const std::vector<double> short_bounds(queries.size() - 1, 1.0);
  EXPECT_TRUE(searcher
                  .SearchShared(queries, kK, StopRule::Exact(), nullptr, {},
                                short_bounds)
                  .status()
                  .IsInvalidArgument());
  for (const double bad : {-1.0, std::nan("")}) {
    std::vector<double> bounds(queries.size(), 1.0);
    bounds[3] = bad;
    EXPECT_TRUE(searcher
                    .SearchShared(queries, kK, StopRule::Exact(), nullptr, {},
                                  bounds)
                    .status()
                    .IsInvalidArgument())
        << bad;
  }
}

}  // namespace
}  // namespace qvt

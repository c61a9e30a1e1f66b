// End-to-end tests of the DynamicIndex wrapper: tombstone semantics,
// static-vs-dynamic equivalence for every registered method, epoch handoff
// under concurrent readers, shared-scan parity, and the registry wrapper.
#include "dynamic/dynamic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/batch_searcher.h"
#include "core/exact_scan.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "dynamic/manifest.h"
#include "search_reference.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace qvt {
namespace {

Collection SmallCollection(size_t n, uint64_t seed = 21) {
  GeneratorConfig config;
  config.num_images = n / 10 + 1;
  config.descriptors_per_image = 10;
  config.num_modes = 5;
  config.seed = seed;
  Collection generated = GenerateCollection(config);
  QVT_CHECK(generated.size() >= n);
  Collection out;
  for (size_t i = 0; i < n; ++i) {
    // Re-key to dense ids so the test controls the id space.
    out.Append(static_cast<DescriptorId>(i), generated.Vector(i),
               generated.Image(i));
  }
  return out;
}

std::vector<std::vector<float>> SmallQueries(const Collection& data,
                                             size_t count) {
  std::vector<std::vector<float>> queries;
  for (size_t i = 0; i < count; ++i) {
    const auto v = data.Vector((i * 37) % data.size());
    std::vector<float> q(v.begin(), v.end());
    q[0] += 0.25f * static_cast<float>(i % 3);  // off-grid but nearby
    queries.push_back(std::move(q));
  }
  return queries;
}

DynamicOptions SmallOptions(const std::string& method,
                            const std::string& params = "",
                            size_t buffer = 60, size_t scale = 3,
                            MergePolicy policy = MergePolicy::kTiering) {
  DynamicOptions options;
  options.method = method;
  options.method_params = params;
  options.extension.buffer_capacity = buffer;
  options.extension.scale_factor = scale;
  options.extension.policy = policy;
  options.target_chunk_size = 25;
  return options;
}

double L2(std::span<const float> values, std::span<const float> query) {
  double sq = 0;
  for (size_t d = 0; d < query.size(); ++d) {
    // Widen before subtracting — the kernels' rounding contract.
    const double diff =
        static_cast<double>(values[d]) - static_cast<double>(query[d]);
    sq += diff * diff;
  }
  return std::sqrt(sq);
}

/// Brute-force k-NN over a live-row map, with the (distance, id) tie-break.
std::vector<Neighbor> BruteForce(
    const std::map<DescriptorId, std::vector<float>>& live,
    std::span<const float> query, size_t k) {
  KnnResultSet set(k);
  for (const auto& [id, values] : live) set.Insert(id, L2(values, query));
  return set.Sorted();
}

/// What any answer must satisfy, exact or not: at most k neighbors, in
/// ascending (distance, id) order, every one live, each at the true L2
/// distance of its live row.
void ExpectLiveOrderedTrueDistances(
    const std::vector<Neighbor>& got,
    const std::map<DescriptorId, std::vector<float>>& live,
    std::span<const float> query, size_t k, const std::string& label) {
  EXPECT_LE(got.size(), k) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto it = live.find(got[i].id);
    ASSERT_NE(it, live.end()) << label << ": dead id " << got[i].id;
    EXPECT_DOUBLE_EQ(got[i].distance, L2(it->second, query))
        << label << " rank " << i;
    if (i > 0) {
      EXPECT_TRUE(got[i - 1].distance < got[i].distance ||
                  (got[i - 1].distance == got[i].distance &&
                   got[i - 1].id < got[i].id))
          << label << " rank " << i << " out of order";
    }
  }
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance)
        << label << " rank " << i;
  }
}

TEST(DynamicIndexTest, InsertDeleteLifecycleAndErrors) {
  MemEnv env;
  Collection data = SmallCollection(50);
  auto created = DynamicIndex::Create(&env, "dyn", SmallOptions("exact-scan"));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DynamicIndex& index = **created;

  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  EXPECT_EQ(index.live_rows(), 10u);

  // Duplicate insert of a live id is rejected.
  EXPECT_TRUE(index.Insert(data.Id(3), data.Vector(3)).IsAlreadyExists());
  // Deleting a never-inserted id is NotFound.
  EXPECT_TRUE(index.Delete(999).IsNotFound());

  ASSERT_TRUE(index.Delete(data.Id(3)).ok());
  EXPECT_EQ(index.live_rows(), 9u);
  EXPECT_EQ(index.num_tombstones(), 1u);
  // Double delete is NotFound.
  EXPECT_TRUE(index.Delete(data.Id(3)).IsNotFound());

  // Delete-then-reinsert: the id becomes live again with the new vector.
  ASSERT_TRUE(index.Insert(data.Id(3), data.Vector(20)).ok());
  EXPECT_EQ(index.live_rows(), 10u);
  auto result = index.Search(data.Vector(20), 1, StopRule::Exact());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->neighbors.size(), 1u);
  EXPECT_EQ(result->neighbors[0].id, data.Id(3));
  EXPECT_DOUBLE_EQ(result->neighbors[0].distance, 0.0);

  // The index filters its own tombstones; a caller's excluded ids are
  // refused.
  const std::vector<DescriptorId> excluded = {1};
  EXPECT_TRUE(index.Search(data.Vector(20), 1, StopRule::Exact(), excluded)
                  .status()
                  .IsInvalidArgument());

  // Dimension mismatches fail loudly.
  std::vector<float> short_vec(3, 0.0f);
  EXPECT_TRUE(index.Insert(777, short_vec).IsInvalidArgument());
  EXPECT_TRUE(index.Search(short_vec, 1, StopRule::Exact())
                  .status()
                  .IsInvalidArgument());
  // So do NaN and infinite coordinates, on the lone and batched query paths
  // and at insert, where they would poison a shard.
  const auto good = data.Vector(5);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> query(good.begin(), good.end());
    query[2] = bad;
    EXPECT_TRUE(index.Search(query, 5, StopRule::Exact())
                    .status()
                    .IsInvalidArgument());
    const std::vector<std::span<const float>> batch = {good, query};
    EXPECT_TRUE(index.SearchShared(batch, 5, StopRule::Exact(), nullptr)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(index.Insert(999, query).IsInvalidArgument());
  }
  EXPECT_EQ(index.live_rows(), 10u);
}

TEST(DynamicIndexTest, CreateRejectsBadConfigurations) {
  MemEnv env;
  EXPECT_TRUE(DynamicIndex::Create(&env, "dyn", SmallOptions("no-such-method"))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(DynamicIndex::Create(&env, "dyn", SmallOptions("dynamic"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DynamicIndex::Create(&env, "", SmallOptions("exact-scan"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      DynamicIndex::Create(nullptr, "dyn", SmallOptions("exact-scan"))
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(DynamicIndex::Open(&env, "missing").status().IsNotFound());
}

// A deleted row that already sits in a shard must stay filtered across
// every merge boundary: the k-NN answer is identical before a flush, after
// the flush, after cascaded merges, and after full compaction.
TEST(DynamicIndexTest, TombstoneFilteringAcrossMergeBoundaries) {
  MemEnv env;
  Collection data = SmallCollection(300);
  auto created = DynamicIndex::Create(
      &env, "dyn", SmallOptions("exact-scan", "", /*buffer=*/40));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;

  std::map<DescriptorId, std::vector<float>> live;
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
    live[data.Id(i)] = {data.Vector(i).begin(), data.Vector(i).end()};
  }
  ASSERT_GT(index.num_shards(), 1u);

  // Delete rows that live in shards (anything outside the current buffer).
  for (DescriptorId id = 0; id < 120; id += 5) {
    ASSERT_TRUE(index.Delete(id).ok());
    live.erase(id);
  }
  ASSERT_GT(index.num_tombstones(), 0u);

  const auto queries = SmallQueries(data, 8);
  const size_t k = 10;
  std::vector<std::vector<Neighbor>> before;
  for (const auto& q : queries) {
    auto result = index.Search(q, k, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->telemetry.exact);
    ExpectSameNeighbors(result->neighbors, BruteForce(live, q, k),
                        "pre-flush vs brute force");
    before.push_back(result->neighbors);
  }

  // Flush pushes the tombstones' work through a merge cascade...
  ASSERT_TRUE(index.Flush().ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = index.Search(queries[i], k, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    ExpectSameNeighbors(result->neighbors, before[i], "post-flush");
  }

  // ...and compaction purges them entirely. Answers stay bit-identical.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_EQ(index.num_shards(), 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = index.Search(queries[i], k, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    ExpectSameNeighbors(result->neighbors, before[i], "post-compaction");
  }
}

/// Saves `index` and returns the bytes of everything it persists: the
/// manifest, then every live shard's artifact files in manifest order.
std::vector<uint8_t> SavedBytes(DynamicIndex& index, MemEnv& env) {
  QVT_CHECK_OK(index.Save());
  auto manifest = LoadDynamicManifest(&env, index.base());
  QVT_CHECK_OK(manifest.status());
  std::vector<std::string> paths = {DynamicManifestPath(index.base())};
  for (const ManifestShardRecord& shard : manifest->shards) {
    for (const char* suffix : {".desc", ".desc.img", ".chunks", ".index"}) {
      paths.push_back(ShardArtifactBase(index.base(), shard.id) + suffix);
    }
  }
  std::vector<uint8_t> all;
  for (const std::string& path : paths) {
    if (!env.FileExists(path)) continue;
    auto bytes = ReadFileBytes(&env, path);
    QVT_CHECK_OK(bytes.status());
    all.insert(all.end(), bytes->begin(), bytes->end());
  }
  return all;
}

struct MethodCase {
  const char* method;
  const char* params;
};

// For EVERY registered method, a statically built index over collection C
// answers bit-identically to a dynamic index that reached C through an
// insert stream with interleaved deletes and a final compaction — at any
// build-thread count, where every flush, merge and compaction also writes
// the same bytes as the serial build does.
TEST(DynamicIndexTest, CompactedStreamEqualsStaticBuildForEveryMethod) {
  const MethodCase cases[] = {
      {"exact-scan", ""},
      {"chunked", ""},
      {"lsh", ""},
      {"va-file", ""},
      {"medrank", ""},
      {"psphere", "num_spheres=8"},
      {"pq", "m=4,ksub=16,rerank=32"},
  };
  Collection data = SmallCollection(300);
  const auto queries = SmallQueries(data, 6);
  const size_t k = 10;

  struct BuildThreadsGuard {
    ~BuildThreadsGuard() { SetBuildThreads(0); }
  } guard;

  // The serial build's persisted bytes per method: after the stream's
  // flushes and merges, and after the compaction.
  std::map<std::string, std::vector<uint8_t>> serial_leveled;
  std::map<std::string, std::vector<uint8_t>> serial_compacted;
  for (const int threads : {1, 3}) {
    SetBuildThreads(threads);
    for (const MethodCase& c : cases) {
      const std::string label =
          std::string(c.method) + " @" + std::to_string(threads) + " threads";
      MemEnv env;
      auto created = DynamicIndex::Create(
          &env, "dyn", SmallOptions(c.method, c.params, /*buffer=*/60));
      ASSERT_TRUE(created.ok()) << label << ": " << created.status().ToString();
      DynamicIndex& index = **created;

      // The surviving stream, in insertion order (delete + re-insert moves
      // a row to the end — its new sequence position).
      std::vector<DescriptorId> stream;
      for (size_t i = 0; i < data.size(); ++i) {
        const DescriptorId id = data.Id(i);
        ASSERT_TRUE(index.Insert(id, data.Vector(i)).ok()) << label;
        stream.push_back(id);
        if (i % 7 == 3 && i >= 10) {
          // Delete a row inserted a while ago (usually already in a shard).
          const DescriptorId victim = data.Id(i - 10);
          ASSERT_TRUE(index.Delete(victim).ok()) << label;
          stream.erase(std::find(stream.begin(), stream.end(), victim));
          if (i % 14 == 3) {  // re-insert half of the victims at the tail
            ASSERT_TRUE(index.Insert(victim, data.Vector(i - 10)).ok())
                << label;
            stream.push_back(victim);
          }
        }
      }
      ASSERT_GT(index.Stats().merges, 0u) << label;
      std::vector<uint8_t> leveled = SavedBytes(index, env);
      ASSERT_TRUE(index.Compact().ok()) << label;
      ASSERT_EQ(index.num_tombstones(), 0u) << label;
      ASSERT_EQ(index.live_rows(), stream.size()) << label;
      std::vector<uint8_t> compacted = SavedBytes(index, env);
      if (threads == 1) {
        serial_leveled[c.method] = std::move(leveled);
        serial_compacted[c.method] = std::move(compacted);
      } else {
        EXPECT_TRUE(leveled == serial_leveled[c.method])
            << label << ": flushed and merged shards differ from the serial "
            << "build";
        EXPECT_TRUE(compacted == serial_compacted[c.method])
            << label << ": the compacted shard differs from the serial build";
      }

      // Static reference: the same survivors in the same order, built
      // through the same shard entry point.
      Collection reference(data.dim());
      std::map<DescriptorId, size_t> position;
      for (size_t i = 0; i < data.size(); ++i) position[data.Id(i)] = i;
      for (const DescriptorId id : stream) {
        reference.Append(id, data.Vector(position[id]),
                         data.Image(position[id]));
      }
      ShardBuildContext context;
      context.data = std::make_shared<Collection>(std::move(reference));
      context.env = &env;
      context.artifact_base = "static-ref";
      context.target_chunk_size = 25;
      auto built = MethodRegistry::Global().BuildShard(c.method, context,
                                                       c.params);
      ASSERT_TRUE(built.ok()) << label << ": " << built.status().ToString();

      for (size_t qi = 0; qi < queries.size(); ++qi) {
        auto dynamic_result = index.Search(queries[qi], k, StopRule::Exact());
        auto static_result =
            built->method->Search(queries[qi], k, StopRule::Exact());
        ASSERT_TRUE(dynamic_result.ok()) << label;
        ASSERT_TRUE(static_result.ok()) << label;
        ExpectSameNeighbors(dynamic_result->neighbors,
                            static_result->neighbors,
                            label + " query " + std::to_string(qi));
        EXPECT_EQ(dynamic_result->telemetry.exact,
                  static_result->telemetry.exact)
            << label;
      }
    }
  }
}

// Every shard is searched at k with its dead ids filtered inside the
// method, so a shard whose rows are all deleted, or one holding fewer rows
// than k, is an ordinary search for every method. (Over-fetching
// k + tombstones asked such a Medrank shard for more rows than it holds:
// "k out of range".)
TEST(DynamicIndexTest, EveryMethodSearchesDeadAndTinyShards) {
  const MethodCase cases[] = {
      {"exact-scan", ""},
      {"chunked", ""},
      {"lsh", ""},
      {"va-file", ""},
      {"medrank", ""},
      {"psphere", "num_spheres=8"},
      {"pq", "m=4,ksub=16,rerank=32"},
  };
  Collection data = SmallCollection(120);
  const auto queries = SmallQueries(data, 6);
  const size_t k = 10;
  for (const MethodCase& c : cases) {
    const std::string method = c.method;
    const bool exact = method == "exact-scan" || method == "chunked" ||
                       method == "va-file";
    // Inserts rows [0, n), deletes rows [0, dead), optionally flushes, and
    // checks every query against the live rows.
    auto run = [&](size_t n, size_t dead, bool flush,
                   const std::string& stage) {
      const std::string at = method + " " + stage;
      MemEnv env;
      auto created =
          DynamicIndex::Create(&env, "dyn", SmallOptions(c.method, c.params));
      ASSERT_TRUE(created.ok()) << at << ": " << created.status().ToString();
      DynamicIndex& index = **created;
      std::map<DescriptorId, std::vector<float>> live;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok()) << at;
        live[data.Id(i)] = {data.Vector(i).begin(), data.Vector(i).end()};
      }
      for (size_t i = 0; i < dead; ++i) {
        ASSERT_TRUE(index.Delete(data.Id(i)).ok()) << at;
        live.erase(data.Id(i));
      }
      if (flush) {
        ASSERT_TRUE(index.Flush().ok()) << at;
      }
      ASSERT_GE(index.num_shards(), 1u) << at;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const std::string label = at + " query " + std::to_string(qi);
        auto result = index.Search(queries[qi], k, StopRule::Exact());
        ASSERT_TRUE(result.ok())
            << label << ": " << result.status().ToString();
        ExpectLiveOrderedTrueDistances(result->neighbors, live, queries[qi],
                                       k, label);
        if (exact) {
          ExpectSameNeighbors(result->neighbors,
                              BruteForce(live, queries[qi], k), label);
        }
      }
    };
    // 120 inserts through a 60-row buffer: rows 0-59 form the first shard,
    // and deleting them all leaves it with no live row.
    run(120, 60, false, "dead shard");
    // A flush of 10 buffered rows, 7 of them deleted: a 3-row shard.
    run(10, 7, true, "tiny shard");
  }
}

// Model-based test of the dynamic layer: seeded random sequences of
// insert, delete, re-insert (under a new vector), Flush, Compact, and Save
// followed by Open, checked after every few operations against a naive
// in-memory map of the live rows. Exact-rule answers equal brute force;
// MaxChunks(3) answers hold only live rows, in order, at true distances.
TEST(DynamicIndexTest, RandomOperationSequencesMatchInMemoryModel) {
  Collection data = SmallCollection(400);
  const auto queries = SmallQueries(data, 3);
  const size_t k = 10;
  for (const char* method : {"exact-scan", "chunked"}) {
    for (const MergePolicy policy :
         {MergePolicy::kTiering, MergePolicy::kLeveling}) {
      for (const uint64_t seed : {1, 2}) {
        const std::string label =
            std::string(method) +
            (policy == MergePolicy::kTiering ? " tiering" : " leveling") +
            " seed " + std::to_string(seed);
        const DynamicOptions options =
            SmallOptions(method, "", /*buffer=*/30, /*scale=*/2, policy);
        MemEnv env;
        auto created = DynamicIndex::Create(&env, "dyn", options);
        ASSERT_TRUE(created.ok()) << label;
        std::unique_ptr<DynamicIndex> index = std::move(created).value();
        std::map<DescriptorId, std::vector<float>> live;
        std::vector<DescriptorId> dead;
        size_t next_row = 0;
        Rng rng(seed);
        for (size_t op = 0; op < 300; ++op) {
          const std::string at = label + " op " + std::to_string(op);
          const uint64_t roll = rng.Uniform(100);
          if (roll < 50 && next_row < data.size()) {
            const size_t row = next_row++;
            ASSERT_TRUE(index->Insert(data.Id(row), data.Vector(row)).ok())
                << at;
            live[data.Id(row)] = {data.Vector(row).begin(),
                                  data.Vector(row).end()};
          } else if (roll < 80 && !live.empty()) {
            auto it = live.begin();
            std::advance(it, rng.Uniform(live.size()));
            ASSERT_TRUE(index->Delete(it->first).ok()) << at;
            dead.push_back(it->first);
            live.erase(it);
          } else if (roll < 90 && !dead.empty()) {
            // Re-insert a deleted id under some other row's vector: its
            // old row must stay dead while the new one lives.
            const size_t j = rng.Uniform(dead.size());
            const DescriptorId id = dead[j];
            dead[j] = dead.back();
            dead.pop_back();
            const auto values = data.Vector(rng.Uniform(data.size()));
            ASSERT_TRUE(index->Insert(id, values).ok()) << at;
            live[id] = {values.begin(), values.end()};
          } else if (roll < 95) {
            ASSERT_TRUE(index->Flush().ok()) << at;
          } else if (roll < 97) {
            ASSERT_TRUE(index->Compact().ok()) << at;
          } else {
            ASSERT_TRUE(index->Save().ok()) << at;
            index.reset();
            auto opened = DynamicIndex::Open(&env, "dyn", options);
            ASSERT_TRUE(opened.ok()) << at << ": "
                                     << opened.status().ToString();
            index = std::move(opened).value();
          }
          ASSERT_EQ(index->live_rows(), live.size()) << at;
          if (op % 10 != 9) continue;
          for (const auto& q : queries) {
            auto result = index->Search(q, k, StopRule::Exact());
            ASSERT_TRUE(result.ok()) << at << ": "
                                     << result.status().ToString();
            EXPECT_TRUE(result->telemetry.exact) << at;
            ExpectSameNeighbors(result->neighbors, BruteForce(live, q, k),
                                at + " exact");
            if (std::string(method) != "chunked") continue;
            auto approx = index->Search(q, k, StopRule::MaxChunks(3));
            ASSERT_TRUE(approx.ok()) << at << ": "
                                     << approx.status().ToString();
            ExpectLiveOrderedTrueDistances(approx->neighbors, live, q, k,
                                           at + " max-chunks");
          }
        }
      }
    }
  }
}

// Exact-capable methods must stay exact mid-stream too — buffer + shards +
// tombstones at arbitrary points, checked against brute force.
TEST(DynamicIndexTest, MidStreamExactnessForExactMethods) {
  Collection data = SmallCollection(260);
  const auto queries = SmallQueries(data, 4);
  const size_t k = 8;
  for (const char* method : {"exact-scan", "chunked"}) {
    MemEnv env;
    auto created = DynamicIndex::Create(
        &env, "dyn", SmallOptions(method, "", /*buffer=*/50));
    ASSERT_TRUE(created.ok());
    DynamicIndex& index = **created;
    std::map<DescriptorId, std::vector<float>> live;
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
      live[data.Id(i)] = {data.Vector(i).begin(), data.Vector(i).end()};
      if (i % 9 == 5 && i >= 20) {
        const DescriptorId victim = data.Id(i - 17);
        ASSERT_TRUE(index.Delete(victim).ok());
        live.erase(victim);
      }
      if (i % 40 == 39) {
        for (const auto& q : queries) {
          auto result = index.Search(q, k, StopRule::Exact());
          ASSERT_TRUE(result.ok());
          EXPECT_TRUE(result->telemetry.exact) << method << " at row " << i;
          ExpectSameNeighbors(result->neighbors, BruteForce(live, q, k),
                              std::string(method) + " at row " +
                                  std::to_string(i));
        }
      }
    }
  }
}

TEST(DynamicIndexTest, AttributionAccountsForEveryNeighbor) {
  MemEnv env;
  Collection data = SmallCollection(200);
  auto created = DynamicIndex::Create(
      &env, "dyn", SmallOptions("chunked", "", /*buffer=*/60));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  ASSERT_GT(index.num_shards(), 0u);
  ASSERT_GT(index.buffer_rows(), 0u);
  for (DescriptorId id = 0; id < 40; id += 4) {
    ASSERT_TRUE(index.Delete(id).ok());
  }

  const auto queries = SmallQueries(data, 5);
  const size_t k = 12;
  for (const auto& q : queries) {
    auto result = index.Search(q, k, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    // One attribution row per searched structure (buffer + each shard).
    EXPECT_EQ(result->shards.size(), index.num_shards() + 1);
    EXPECT_EQ(result->telemetry.shards_searched, result->shards.size());
    uint64_t contributed = 0;
    uint64_t rows = 0;
    uint64_t filtered = 0;
    bool saw_buffer = false;
    for (const ShardAttribution& attribution : result->shards) {
      contributed += attribution.neighbors_contributed;
      rows += attribution.rows;
      filtered += attribution.tombstones_filtered;
      saw_buffer |= attribution.shard_id == ShardAttribution::kMutableBuffer;
    }
    EXPECT_TRUE(saw_buffer);
    // Every returned neighbor is attributed to exactly one structure, and
    // the structures together cover every physical row (deletes are
    // tombstones — no physical purge has happened yet).
    EXPECT_EQ(contributed, result->neighbors.size());
    EXPECT_EQ(rows, data.size());
    EXPECT_GT(result->telemetry.tombstones_filtered, 0u);
    // Each dead row is counted once, by the structure that dropped it.
    EXPECT_EQ(result->telemetry.tombstones_filtered, filtered);
  }
}

TEST(DynamicIndexTest, SearchSharedMatchesPerQuerySearch) {
  Collection data = SmallCollection(240);
  const auto query_vectors = SmallQueries(data, 7);
  const size_t k = 9;
  // chunked exercises the wrapped shared-scan executor; lsh and pq the
  // per-query fallback inside SearchShared, alone and in BatchSearcher's
  // concurrent slices.
  const MethodCase cases[] = {
      {"chunked", ""},
      {"lsh", ""},
      {"pq", "m=4,ksub=16,rerank=32"},
  };
  for (const MethodCase& c : cases) {
    MemEnv env;
    auto created = DynamicIndex::Create(
        &env, "dyn", SmallOptions(c.method, c.params, /*buffer=*/50));
    ASSERT_TRUE(created.ok());
    DynamicIndex& index = **created;
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
    }
    for (DescriptorId id = 5; id < 80; id += 9) {
      ASSERT_TRUE(index.Delete(id).ok());
    }
    EXPECT_TRUE(index.SupportsSharedScan());

    std::vector<std::span<const float>> spans;
    for (const auto& q : query_vectors) spans.emplace_back(q);
    SharedScanStats stats;
    auto direct = index.SearchShared(spans, k, StopRule::Exact(), &stats);
    ASSERT_TRUE(direct.ok()) << c.method << ": " << direct.status().ToString();
    std::vector<std::pair<std::string, std::vector<MethodResult>>> runs;
    runs.emplace_back(std::string(c.method) + " SearchShared",
                      std::move(direct).value());
    const Workload workload = ToWorkload(spans);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      const std::string label =
          std::string(c.method) + " @" + std::to_string(threads);
      BatchSearcher batcher(&index, threads);
      auto batch = batcher.SearchAll(workload, k, StopRule::Exact());
      ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
      runs.emplace_back(label, std::move(batch->results));
    }
    for (const auto& [label, shared] : runs) {
      ASSERT_EQ(shared.size(), query_vectors.size());
      for (size_t qi = 0; qi < query_vectors.size(); ++qi) {
        auto single = index.Search(query_vectors[qi], k, StopRule::Exact());
        ASSERT_TRUE(single.ok());
        ExpectSameNeighbors(shared[qi].neighbors, single->neighbors,
                            label + " query " + std::to_string(qi));
        EXPECT_EQ(shared[qi].telemetry.exact, single->telemetry.exact);
      }
    }
  }
}

/// A dynamic index of known content: three chunked shards from explicit
/// Flushes (the scale factor is large enough that nothing merges), rows
/// duplicated across shards (ties between structures), buffer rows, and
/// tombstones in every structure, still pending. Alongside it, the same
/// shards built independently through MethodRegistry::BuildShard.
struct KnownShardsFixture {
  static constexpr size_t kShardRows[] = {150, 150, 120};
  static constexpr size_t kBufferRows = 60;

  MemEnv env;
  MemEnv reference_env;
  Collection data = SmallCollection(480);
  std::unique_ptr<DynamicIndex> index;
  std::vector<MethodShard> shards;   ///< the reference shards, in order
  Collection buffer_rows;            ///< the buffer's rows, in order
  std::vector<DescriptorId> deleted;  ///< ascending

  KnownShardsFixture() {
    auto created = DynamicIndex::Create(
        &env, "dyn",
        SmallOptions("chunked", "", /*buffer=*/1000, /*scale=*/100));
    QVT_CHECK_OK(created.status());
    index = std::move(created).value();
    size_t next = 0;
    for (size_t s = 0; s <= std::size(kShardRows); ++s) {
      const size_t rows =
          s < std::size(kShardRows) ? kShardRows[s] : kBufferRows;
      Collection part;
      for (size_t i = 0; i < rows; ++i, ++next) {
        // Every fourth row of a later structure repeats a row of an
        // earlier one under its own id.
        const size_t source = s > 0 && i % 4 == s - 1 ? i : next;
        part.Append(data.Id(next), data.Vector(source), data.Image(next));
        QVT_CHECK_OK(index->Insert(data.Id(next), data.Vector(source)));
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
      context.target_chunk_size = index->options().target_chunk_size;
      auto shard = MethodRegistry::Global().BuildShard("chunked", context);
      QVT_CHECK_OK(shard.status());
      shards.push_back(std::move(shard).value());
    }
    for (DescriptorId id = 3; id < data.size(); id += 7) {
      QVT_CHECK_OK(index->Delete(id));
      deleted.push_back(id);
    }
  }

  /// The reference answer: every shard searched on its own with the dead
  /// list (unbounded, or under the running merged k-th when `bounded`),
  /// then the buffer, merged in one result set. Model clock and chunks
  /// read are summed.
  MethodResult Reference(std::span<const float> query, size_t k,
                         const StopRule& stop, bool bounded) const {
    KnnResultSet merged(k);
    MethodResult out;
    out.telemetry.exact = true;
    for (const MethodShard& shard : shards) {
      const size_t shard_k = std::min(k, shard.data->size());
      const std::vector<std::span<const float>> one = {query};
      const std::vector<double> bound = {merged.KthDistance()};
      auto sub = shard.method->SearchShared(
          one, shard_k, stop, nullptr, deleted,
          bounded ? std::span<const double>(bound)
                  : std::span<const double>());
      QVT_CHECK_OK(sub.status());
      const MethodResult& r = sub->front();
      for (const Neighbor& n : r.neighbors) merged.Insert(n.id, n.distance);
      out.telemetry.exact = out.telemetry.exact && r.telemetry.exact;
      out.telemetry.chunks_read += r.telemetry.chunks_read;
      out.telemetry.model_micros += r.telemetry.model_micros;
    }
    for (const Neighbor& n : ExactScan(buffer_rows, query, k, deleted)) {
      merged.Insert(n.id, n.distance);
    }
    out.neighbors = merged.Sorted();
    return out;
  }
};

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

// The running merged k-th each shard is searched under, and the buffer
// scanned last into the merged set, change nothing a query returns: the
// answer equals, bit for bit, the merge of unbounded per-shard searches.
TEST(DynamicIndexTest, BoundedShardSearchesEqualUnboundedMerge) {
  const KnownShardsFixture fx;
  ASSERT_EQ(fx.index->num_shards(), std::size(fx.kShardRows));
  ASSERT_EQ(fx.index->buffer_rows(), fx.kBufferRows);
  ASSERT_GT(fx.index->num_tombstones(), 0u);
  const size_t k = 10;
  const auto query_vectors = SmallQueries(fx.data, 12);
  std::vector<std::span<const float>> spans(query_vectors.begin(),
                                            query_vectors.end());
  const double epsilon = 0.5;
  const struct {
    const char* name;
    StopRule rule;
  } rules[] = {
      {"max-chunks-1", StopRule::MaxChunks(1)},
      {"max-chunks-3", StopRule::MaxChunks(3)},
      {"max-chunks-8", StopRule::MaxChunks(8)},
      {"exact", StopRule::Exact()},
      {"epsilon", StopRule::EpsilonApproximate(epsilon)},
  };
  std::map<DescriptorId, std::vector<float>> live;
  for (const auto* part :
       {&fx.shards[0].data, &fx.shards[1].data, &fx.shards[2].data}) {
    for (size_t i = 0; i < (*part)->size(); ++i) {
      const auto v = (*part)->Vector(i);
      live[(*part)->Id(i)].assign(v.begin(), v.end());
    }
  }
  for (size_t i = 0; i < fx.buffer_rows.size(); ++i) {
    const auto v = fx.buffer_rows.Vector(i);
    live[fx.buffer_rows.Id(i)].assign(v.begin(), v.end());
  }
  for (DescriptorId id : fx.deleted) live.erase(id);

  const Workload workload = ToWorkload(spans);
  for (const auto& r : rules) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      BatchSearcher batcher(fx.index.get(), threads);
      auto shared = batcher.SearchAll(workload, k, r.rule);
      ASSERT_TRUE(shared.ok()) << r.name;
      for (size_t q = 0; q < spans.size(); ++q) {
        const std::string label = std::string(r.name) + "/t" +
                                  std::to_string(threads) + " query " +
                                  std::to_string(q);
        const MethodResult& got = shared->results[q];
        // The dynamic layer is exactly: shards in order under the running
        // merged k-th, then the buffer.
        const MethodResult bounded = fx.Reference(spans[q], k, r.rule, true);
        ExpectSameBits(got.neighbors, bounded.neighbors, label + " bounded");
        EXPECT_EQ(got.telemetry.exact, bounded.telemetry.exact) << label;
        EXPECT_EQ(got.telemetry.chunks_read, bounded.telemetry.chunks_read)
            << label;
        if (r.rule.epsilon > 0.0) {
          // An epsilon stop reads min(k-th, bound), so a bounded shard may
          // stop earlier than an unbounded one; the (1+epsilon) guarantee on
          // the k-th distance still holds.
          const auto truth = BruteForce(live, spans[q], k);
          ASSERT_EQ(got.neighbors.size(), truth.size()) << label;
          EXPECT_LE(got.neighbors.back().distance,
                    (1.0 + epsilon) * truth.back().distance * (1.0 + 1e-12))
              << label;
          continue;
        }
        const MethodResult unbounded = fx.Reference(spans[q], k, r.rule, false);
        ExpectSameBits(got.neighbors, unbounded.neighbors, label);
        EXPECT_EQ(got.telemetry.exact, unbounded.telemetry.exact) << label;
        if (r.rule.kind == StopRule::Kind::kMaxChunks) {
          EXPECT_EQ(got.telemetry.chunks_read, unbounded.telemetry.chunks_read)
              << label;
          EXPECT_EQ(got.telemetry.model_micros,
                    unbounded.telemetry.model_micros)
              << label;
        } else {
          EXPECT_TRUE(got.telemetry.exact) << label;
          EXPECT_LE(got.telemetry.chunks_read, unbounded.telemetry.chunks_read)
              << label;
          ExpectLiveOrderedTrueDistances(got.neighbors, live, spans[q], k,
                                         label);
        }
      }
    }
  }
}

// A dynamic query is one query to the shared-scan ledger, however many
// chunk-major shards serve it; fetches and attachments sum over shards.
TEST(DynamicIndexTest, SharedScanLedgerCountsEachQueryOnce) {
  const KnownShardsFixture fx;
  ASSERT_GE(fx.index->num_shards(), 2u);
  const size_t k = 10;
  const auto query_vectors = SmallQueries(fx.data, 9);
  std::vector<std::span<const float>> spans(query_vectors.begin(),
                                            query_vectors.end());
  const StopRule stop = StopRule::MaxChunks(3);
  SharedScanStats stats;
  ASSERT_TRUE(fx.index->SearchShared(spans, k, stop, &stats).ok());
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.queries, spans.size());
  const SharedScanStats one_call = stats;

  SharedScanStats summed;
  for (const MethodShard& shard : fx.shards) {
    SharedScanStats one;
    ASSERT_TRUE(shard.method
                    ->SearchShared(spans, std::min(k, shard.data->size()), stop,
                                   &one, fx.deleted)
                    .ok());
    summed += one;
  }
  EXPECT_EQ(stats.chunk_fetches, summed.chunk_fetches);
  EXPECT_EQ(stats.chunk_attachments, summed.chunk_attachments);
  EXPECT_EQ(stats.rows_fetched, summed.rows_fetched);
  EXPECT_EQ(stats.rows_scan_shared, summed.rows_scan_shared);

  // The ledger accumulates across calls: a second call adds n again.
  ASSERT_TRUE(fx.index->SearchShared(spans, k, stop, &stats).ok());
  EXPECT_EQ(stats.queries, 2 * spans.size());

  // Through BatchSearcher, with the first four queries replayed after the
  // last: whatever slices the threads cut, a distinct query counts once, a
  // replay is a dedup hit, every fetch is in the histogram, and every
  // (chunk, query) pair read is one attachment. Each slice fetches its own
  // chunks, so only one slice (one thread) reproduces the direct call.
  std::vector<std::span<const float>> replay = spans;
  replay.insert(replay.end(), spans.begin(), spans.begin() + 4);
  const Workload workload = ToWorkload(replay);
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
    const std::string label = "t" + std::to_string(threads);
    BatchSearcher batcher(fx.index.get(), threads);
    auto batch = batcher.SearchAll(workload, k, stop);
    ASSERT_TRUE(batch.ok()) << label;
    const SharedScanStats& ledger = batch->shared;
    EXPECT_TRUE(ledger.enabled) << label;
    EXPECT_EQ(ledger.queries, spans.size()) << label;
    EXPECT_EQ(ledger.dedup_hits, 4u) << label;
    uint64_t histogram = 0;
    for (const uint64_t count : ledger.coscan_histogram) histogram += count;
    EXPECT_EQ(histogram, ledger.chunk_fetches) << label;
    uint64_t chunks_read = 0;
    for (size_t q = 0; q < spans.size(); ++q) {
      chunks_read += batch->results[q].telemetry.chunks_read;
    }
    EXPECT_EQ(ledger.chunk_attachments, chunks_read) << label;
    EXPECT_EQ(ledger.chunk_attachments, one_call.chunk_attachments) << label;
    if (threads == 1) {
      EXPECT_EQ(ledger.chunk_fetches, one_call.chunk_fetches);
      EXPECT_EQ(ledger.rows_scan_shared, one_call.rows_scan_shared);
    }
  }
}

TEST(DynamicIndexTest, SearchSharedRejectsCallerBounds) {
  const KnownShardsFixture fx;
  const auto query_vectors = SmallQueries(fx.data, 2);
  std::vector<std::span<const float>> spans(query_vectors.begin(),
                                            query_vectors.end());
  const std::vector<double> bounds(spans.size(), 1.0);
  EXPECT_TRUE(fx.index
                  ->SearchShared(spans, 5, StopRule::Exact(), nullptr, {},
                                 bounds)
                  .status()
                  .IsInvalidArgument());
}

TEST(DynamicIndexTest, BatchSearcherDrivesTheDynamicIndex) {
  MemEnv env;
  Collection data = SmallCollection(200);
  auto created = DynamicIndex::Create(
      &env, "dyn", SmallOptions("chunked", "", /*buffer=*/60));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  for (DescriptorId id = 2; id < 50; id += 11) {
    ASSERT_TRUE(index.Delete(id).ok());
  }

  Workload workload;
  workload.name = "dyn-test";
  workload.dim = data.dim();
  const auto query_vectors = SmallQueries(data, 6);
  for (const auto& q : query_vectors) {
    workload.queries.insert(workload.queries.end(), q.begin(), q.end());
  }

  const size_t k = 7;
  BatchSearcher searcher(&index, /*num_threads=*/2);
  auto batch = searcher.SearchAll(workload, k, StopRule::Exact());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), query_vectors.size());
  for (size_t qi = 0; qi < query_vectors.size(); ++qi) {
    auto single = index.Search(query_vectors[qi], k, StopRule::Exact());
    ASSERT_TRUE(single.ok());
    ExpectSameNeighbors(batch->results[qi].neighbors, single->neighbors,
                        "batch query " + std::to_string(qi));
  }
  EXPECT_EQ(batch->exact_queries, query_vectors.size());
}

// Readers hammer Search while a writer inserts, deletes, and flushes.
// Correctness bar: every query sees a coherent snapshot (k results, sorted,
// no dead id that was deleted before the reader started). TSan (CI) proves
// the epoch handoff is race-free.
TEST(DynamicIndexTest, ConcurrentInsertDeleteQueryHammer) {
  MemEnv env;
  Collection data = SmallCollection(400);
  auto created = DynamicIndex::Create(
      &env, "dyn", SmallOptions("exact-scan", "", /*buffer=*/32));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;

  // Seed rows deleted before any reader starts: they must never surface.
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  for (DescriptorId id = 0; id < 50; id += 2) {
    ASSERT_TRUE(index.Delete(id).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t qi = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto query = data.Vector(qi % data.size());
        qi += 7;
        auto result = index.Search(query, 5, StopRule::Exact());
        if (!result.ok()) {
          ++failures;
          continue;
        }
        for (const Neighbor& neighbor : result->neighbors) {
          // Ids deleted before the hammer started stay deleted forever.
          if (neighbor.id < 50 && neighbor.id % 2 == 0) ++failures;
        }
        for (size_t i = 1; i < result->neighbors.size(); ++i) {
          if (result->neighbors[i].distance <
              result->neighbors[i - 1].distance) {
            ++failures;
          }
        }
      }
    });
  }

  for (size_t i = 50; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
    if (i % 13 == 5) {
      ASSERT_TRUE(index.Delete(data.Id(i - 3)).ok());
    }
    if (i % 60 == 59) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  ASSERT_TRUE(index.Compact().ok());
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(DynamicIndexTest, ResidentBytesTracksStructures) {
  MemEnv env;
  Collection data = SmallCollection(150);
  auto created = DynamicIndex::Create(
      &env, "dyn", SmallOptions("chunked", "", /*buffer=*/40));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;
  const size_t empty_bytes = index.ResidentBytes();
  EXPECT_GT(empty_bytes, 0u);  // the preallocated buffer
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  EXPECT_GT(index.ResidentBytes(), empty_bytes);
}

TEST(DynamicIndexTest, RegistryWrapperOpensSavedIndex) {
  MemEnv env;
  Collection data = SmallCollection(150);
  {
    auto created = DynamicIndex::Create(
        &env, "wrapped", SmallOptions("chunked", "", /*buffer=*/40));
    ASSERT_TRUE(created.ok());
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE((*created)->Insert(data.Id(i), data.Vector(i)).ok());
    }
    ASSERT_TRUE((*created)->Delete(data.Id(5)).ok());
    ASSERT_TRUE((*created)->Save().ok());
  }

  ASSERT_TRUE(RegisterDynamicMethod(MethodRegistry::Global()).ok());
  // Idempotent.
  ASSERT_TRUE(RegisterDynamicMethod(MethodRegistry::Global()).ok());

  MethodContext context;
  context.env = &env;
  auto method = MethodRegistry::Global().Create("dynamic", context,
                                                "base=wrapped");
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ASSERT_TRUE((*method)->Prepare().ok());
  auto result = (*method)->Search(data.Vector(7), 3, StopRule::Exact());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors[0].id, data.Id(7));
  EXPECT_GT((*method)->ResidentBytes(), 0u);

  // Unknown parameters and a missing base fail loudly.
  EXPECT_FALSE(
      MethodRegistry::Global().Create("dynamic", context, "").ok());
  EXPECT_FALSE(MethodRegistry::Global()
                   .Create("dynamic", context, "base=wrapped,bogus=1")
                   .ok());
}

TEST(DynamicIndexTest, LevelingPolicyKeepsShardCountLow) {
  MemEnv env;
  Collection data = SmallCollection(360);
  auto created = DynamicIndex::Create(
      &env, "dyn",
      SmallOptions("exact-scan", "", /*buffer=*/30, /*scale=*/2,
                   MergePolicy::kLeveling));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;
  std::map<DescriptorId, std::vector<float>> live;
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
    live[data.Id(i)] = {data.Vector(i).begin(), data.Vector(i).end()};
  }
  // Leveling: at most one shard per level.
  std::map<uint32_t, int> per_level;
  const DynamicStats stats = index.Stats();
  EXPECT_GT(stats.merges, 0u);
  const auto queries = SmallQueries(data, 4);
  for (const auto& q : queries) {
    auto result = index.Search(q, 6, StopRule::Exact());
    ASSERT_TRUE(result.ok());
    ExpectSameNeighbors(result->neighbors, BruteForce(live, q, 6),
                        "leveling");
    for (const ShardAttribution& attribution : result->shards) {
      if (attribution.shard_id != ShardAttribution::kMutableBuffer) {
        EXPECT_LE(++per_level[attribution.level], 1) << "leveling invariant";
      }
    }
    per_level.clear();
  }
}

}  // namespace
}  // namespace qvt

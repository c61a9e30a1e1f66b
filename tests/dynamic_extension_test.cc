// Unit tests of the dynamization building blocks: the append-only
// MutableBuffer and its publish protocol, the immutable TombstoneSet, level
// capacities, and the pure merge planner for both policies.
#include "dynamic/extension.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/mutable_buffer.h"
#include "geometry/kernels.h"
#include "kernel_backends.h"
#include "util/random.h"

namespace qvt {
namespace {

std::vector<float> Vec(size_t dim, float fill) {
  return std::vector<float>(dim, fill);
}

TEST(MutableBufferTest, AppendPublishesRowsInOrder) {
  MutableBuffer buffer(/*dim=*/4, /*capacity=*/8, /*base_seq=*/10);
  EXPECT_EQ(buffer.committed(), 0u);
  EXPECT_EQ(buffer.capacity(), 8u);
  EXPECT_EQ(buffer.base_seq(), 10u);

  buffer.Append(7, 3, 10, Vec(4, 1.5f));
  buffer.Append(9, 4, 11, Vec(4, -2.0f));
  ASSERT_EQ(buffer.committed(), 2u);
  EXPECT_EQ(buffer.id(0), 7u);
  EXPECT_EQ(buffer.image(0), 3u);
  EXPECT_EQ(buffer.seq(0), 10u);
  EXPECT_EQ(buffer.Vector(1)[2], -2.0f);
  EXPECT_EQ(buffer.seq(1), 11u);
}

TEST(MutableBufferTest, ScanMatchesBruteForceAndFiltersTombstones) {
  const size_t dim = 6;
  MutableBuffer buffer(dim, 32, 1);
  for (size_t i = 0; i < 20; ++i) {
    std::vector<float> v(dim);
    for (size_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>((i * 13 + d * 7) % 17);
    }
    buffer.Append(static_cast<DescriptorId>(100 + i), 0,
                  /*seq=*/1 + i, v);
  }
  const std::vector<float> query(dim, 3.0f);

  // Tombstone id 105 (row seq 6) at seq 50 — dead; and id 110 (row seq 11)
  // at seq 5 — older than the row, so the row survives (the re-insert
  // rule).
  std::vector<uint64_t> row_tombstones(20, 0);
  row_tombstones[5] = 50;
  row_tombstones[10] = 5;

  KnnResultSet set(5);
  QueryTelemetry telemetry;
  const uint64_t filtered =
      buffer.Scan(query, 20, row_tombstones, &set, &telemetry);
  EXPECT_EQ(filtered, 1u);
  EXPECT_EQ(telemetry.tombstones_filtered, 1u);
  EXPECT_EQ(telemetry.candidates_examined, 20u);
  EXPECT_EQ(telemetry.descriptors_scanned, 19u);

  KnnResultSet reference(5);
  for (size_t i = 0; i < 20; ++i) {
    if (i == 5) continue;
    double sq = 0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(buffer.Vector(i)[d]) -
                          static_cast<double>(query[d]);
      sq += diff * diff;
    }
    reference.Insert(buffer.id(i), std::sqrt(sq));
  }
  const auto got = set.Sorted();
  const auto want = reference.Sorted();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

// Under a finite limit the scan filters rows by their fp32 bound before the
// exact kernel. Held to a plain per-row scan (every row's exact distance,
// offered in row order when not above the current abandon threshold) on
// every backend: centered rows with dimensions spread over binades, so the
// fp32 bounds round, starting limits finite and +inf, and dead rows inside
// the limit. Neighbor ids, distance bits and the refused count must agree.
TEST(MutableBufferTest, FilteredScanMatchesPerRowReference) {
  const size_t dim = 24;
  const size_t rows = 700;  // two full 256-row blocks and a partial one
  MutableBuffer buffer(dim, 1024, 1);
  Rng rng(43);
  std::vector<float> v(dim);
  for (size_t i = 0; i < rows; ++i) {
    double scale = 1.0;
    for (size_t d = 0; d < dim; ++d, scale *= 0.7) {
      v[d] = static_cast<float>(rng.UniformDouble(-1.0, 1.0) * scale);
    }
    buffer.Append(static_cast<DescriptorId>(1000 + i), 0, 1 + i, v);
  }
  std::vector<float> query(dim);
  double scale = 1.0;
  for (size_t d = 0; d < dim; ++d, scale *= 0.7) {
    query[d] = static_cast<float>(rng.UniformDouble(-0.5, 0.5) * scale);
  }
  std::vector<double> exact(rows);
  for (size_t i = 0; i < rows; ++i) {
    double sq = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(buffer.Vector(i)[d]) -
                          static_cast<double>(query[d]);
      sq += diff * diff;
    }
    exact[i] = sq;
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  // Every seventh row is dead; rows inside the finite limits are among them.
  std::vector<uint64_t> tombstones(rows, 0);
  for (size_t i = 0; i < rows; i += 7) tombstones[i] = 1 + rows;
  size_t dead_inside = 0;
  for (size_t i = 0; i < rows; i += 7) {
    dead_inside += exact[i] <= sorted[60] ? 1 : 0;
  }
  ASSERT_GT(dead_inside, 0u);

  // A bound at the 10th distance holds that row exactly on the limit.
  for (const double bound : {std::sqrt(sorted[60]), std::sqrt(sorted[15]),
                             std::sqrt(sorted[9]),
                             std::numeric_limits<double>::infinity()}) {
    KnnResultSet reference(10, {}, bound);
    uint64_t refused = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (exact[i] > kernels::AbandonThreshold(reference.KthDistance())) {
        continue;
      }
      if (tombstones[i] > buffer.seq(i)) {
        ++refused;
        continue;
      }
      reference.Insert(buffer.id(i), std::sqrt(exact[i]));
    }
    const std::vector<Neighbor> want = reference.Sorted();
    BackendGuard guard;
    for (const kernels::Backend backend : SupportedBackends()) {
      kernels::SetBackendForTesting(backend);
      const std::string label = std::string(kernels::BackendName(backend)) +
                                " bound " + std::to_string(bound);
      KnnResultSet set(10, {}, bound);
      EXPECT_EQ(buffer.Scan(query, rows, tombstones, &set, nullptr), refused)
          << label;
      const std::vector<Neighbor> got = set.Sorted();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
        EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance,
                              sizeof(double)),
                  0)
            << label << " rank " << i;
      }
    }
  }
}

TEST(MutableBufferTest, ConcurrentReadersSeeOnlyCommittedRows) {
  const size_t dim = 8;
  const size_t capacity = 2000;
  MutableBuffer buffer(dim, capacity, 1);
  std::atomic<bool> stop{false};
  // Readers hammer committed() + row accessors while the writer appends;
  // every row visible through an acquire load must be fully written. Run
  // under TSan to prove the release/acquire protocol.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t rows = buffer.committed();
        for (size_t i = 0; i < rows; ++i) {
          // Row i was published: id encodes seq, vector encodes id.
          EXPECT_EQ(buffer.seq(i), buffer.id(i) + 1u);
          EXPECT_EQ(buffer.Vector(i)[dim - 1],
                    static_cast<float>(buffer.id(i)));
        }
      }
    });
  }
  for (size_t i = 0; i < capacity; ++i) {
    buffer.Append(static_cast<DescriptorId>(i), 0, i + 1,
                  Vec(dim, static_cast<float>(i)));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(buffer.committed(), capacity);
}

TEST(TombstoneSetTest, WithAndSeqFor) {
  auto empty = TombstoneSet::Empty();
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->SeqFor(42), 0u);

  auto one = empty->With(42, 7);
  EXPECT_EQ(one->size(), 1u);
  EXPECT_EQ(one->SeqFor(42), 7u);
  EXPECT_EQ(one->SeqFor(41), 0u);
  // The source set is untouched (immutably shared by snapshots).
  EXPECT_TRUE(empty->empty());

  auto two = one->With(10, 3);
  EXPECT_EQ(two->size(), 2u);
  EXPECT_EQ(two->entries().front().first, 10u);  // sorted by id

  // Re-deleting the same id keeps the newer seq.
  auto newer = two->With(42, 99);
  EXPECT_EQ(newer->size(), 2u);
  EXPECT_EQ(newer->SeqFor(42), 99u);
  auto older = newer->With(42, 5);
  EXPECT_EQ(older->SeqFor(42), 99u);
}

TEST(LevelCapacityTest, GrowsGeometricallyAndSaturates) {
  ExtensionConfig config;
  config.buffer_capacity = 100;
  config.scale_factor = 4;
  EXPECT_EQ(LevelCapacity(config, 0), 400u);
  EXPECT_EQ(LevelCapacity(config, 1), 1600u);
  EXPECT_EQ(LevelCapacity(config, 2), 6400u);
  // Degenerate scale factors clamp to 2 rather than looping forever.
  config.scale_factor = 0;
  EXPECT_EQ(LevelCapacity(config, 0), 200u);
  // Deep levels saturate instead of overflowing.
  config.scale_factor = 1000;
  EXPECT_EQ(LevelCapacity(config, 63), UINT64_MAX);
}

TEST(PlanMergeCascadeTest, TieringMergesFullLevelAndCascades) {
  ExtensionConfig config;
  config.buffer_capacity = 10;
  config.scale_factor = 2;
  config.policy = MergePolicy::kTiering;

  // Below the fan-in: nothing to do.
  EXPECT_TRUE(PlanMergeCascade(config, {{0, 0, 10, 1}}).empty());

  // Two level-0 shards overflow (fan-in 2) and the resulting level-1 shard
  // joins an existing one, cascading into level 2.
  std::vector<ShardGeometry> shards = {
      {0, 1, 20, 1},   // existing level-1 occupant
      {1, 0, 10, 21},  // two level-0 shards
      {2, 0, 10, 31},
  };
  const auto ops = PlanMergeCascade(config, shards);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].target_level, 1u);
  EXPECT_EQ(ops[0].source_shard_ids, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(ops[1].target_level, 2u);
  // Sources of the cascade: the old occupant and the simulated merge
  // output, which the planner numbers max(id)+1 = 3.
  EXPECT_EQ(ops[1].source_shard_ids, (std::vector<uint32_t>{0, 3}));
}

TEST(PlanMergeCascadeTest, LevelingKeepsOneShardPerLevel) {
  ExtensionConfig config;
  config.buffer_capacity = 10;
  config.scale_factor = 2;
  config.policy = MergePolicy::kLeveling;

  // A single level-0 shard that fits level 0: nothing to do.
  EXPECT_TRUE(PlanMergeCascade(config, {{5, 0, 10, 1}}).empty());

  // Flush shard + level-0 occupant fit level 0's capacity (20): one merge,
  // target level 0.
  {
    const auto ops =
        PlanMergeCascade(config, {{0, 0, 10, 1}, {1, 0, 10, 11}});
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].target_level, 0u);
    EXPECT_EQ(ops[0].source_shard_ids, (std::vector<uint32_t>{0, 1}));
  }

  // Overflowing level 0 pulls in the level-1 occupant; sources come in
  // ascending seq_floor (oldest rows first). 25 + 10 = 35 rows fit level
  // 1's capacity of 40.
  {
    const auto ops = PlanMergeCascade(
        config, {{0, 1, 10, 1}, {1, 0, 15, 31}, {2, 0, 10, 46}});
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].target_level, 1u);
    EXPECT_EQ(ops[0].source_shard_ids, (std::vector<uint32_t>{0, 1, 2}));
  }

  // When the gathered rows overflow the next level too, the target keeps
  // descending until its capacity holds them — even past empty levels.
  {
    const auto ops = PlanMergeCascade(
        config, {{0, 1, 30, 1}, {1, 0, 15, 31}, {2, 0, 10, 46}});
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].target_level, 2u);  // 55 rows need capacity 80
    EXPECT_EQ(ops[0].source_shard_ids, (std::vector<uint32_t>{0, 1, 2}));
  }

  // Deeper occupants that already fit stay untouched.
  {
    const auto ops = PlanMergeCascade(
        config, {{0, 2, 70, 1}, {1, 0, 5, 71}, {2, 0, 5, 76}});
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].target_level, 0u);
    EXPECT_EQ(ops[0].source_shard_ids, (std::vector<uint32_t>{1, 2}));
  }
}

TEST(PlanMergeCascadeTest, DeterministicForSameGeometry) {
  ExtensionConfig config;
  config.buffer_capacity = 4;
  config.scale_factor = 3;
  std::vector<ShardGeometry> shards;
  for (uint32_t i = 0; i < 9; ++i) {
    shards.push_back({i, i % 3, 4ull << (i % 3), 1 + 10ull * i});
  }
  const auto a = PlanMergeCascade(config, shards);
  std::reverse(shards.begin(), shards.end());
  const auto b = PlanMergeCascade(config, shards);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source_shard_ids, b[i].source_shard_ids);
    EXPECT_EQ(a[i].target_level, b[i].target_level);
  }
}

}  // namespace
}  // namespace qvt

// Durability tests of the QVTDYN01 manifest: save/reopen roundtrip, fsck,
// corruption and truncation detection, crash atomicity, and garbage
// collection of merged-away shard artifacts.
#include "dynamic/manifest.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/chunk_index.h"
#include "descriptor/generator.h"
#include "dynamic/dynamic_index.h"
#include "storage/format.h"
#include "util/logging.h"

namespace qvt {
namespace {

Collection TestCollection(size_t n) {
  GeneratorConfig config;
  config.num_images = n / 10 + 1;
  config.descriptors_per_image = 10;
  config.num_modes = 4;
  config.seed = 33;
  Collection generated = GenerateCollection(config);
  QVT_CHECK(generated.size() >= n);
  Collection out;
  for (size_t i = 0; i < n; ++i) {
    out.Append(static_cast<DescriptorId>(i), generated.Vector(i),
               generated.Image(i));
  }
  return out;
}

DynamicOptions Options(const std::string& method = "chunked",
                       size_t buffer = 40) {
  DynamicOptions options;
  options.method = method;
  options.extension.buffer_capacity = buffer;
  options.extension.scale_factor = 3;
  options.target_chunk_size = 20;
  return options;
}

/// Builds an index with shards, tombstones, and a part-full buffer — every
/// manifest section populated — and saves it.
std::unique_ptr<DynamicIndex> BuildAndSave(MemEnv* env,
                                           const Collection& data,
                                           const std::string& base,
                                           const std::string& method) {
  auto created = DynamicIndex::Create(env, base, Options(method));
  QVT_CHECK_OK(created.status());
  std::unique_ptr<DynamicIndex> index = std::move(*created);
  for (size_t i = 0; i < data.size(); ++i) {
    QVT_CHECK_OK(index->Insert(data.Id(i), data.Vector(i), data.Image(i)));
  }
  for (DescriptorId id = 1; id < 60; id += 7) {
    QVT_CHECK_OK(index->Delete(id));
  }
  QVT_CHECK_OK(index->Save());
  return index;
}

TEST(DynamicManifestTest, SaveReopenRoundtripPreservesEverything) {
  MemEnv env;
  Collection data = TestCollection(150);
  auto index = BuildAndSave(&env, data, "dyn", "chunked");
  ASSERT_GT(index->num_shards(), 0u);
  ASSERT_GT(index->buffer_rows(), 0u);
  ASSERT_GT(index->num_tombstones(), 0u);

  auto reopened = DynamicIndex::Open(&env, "dyn", Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), index->num_shards());
  EXPECT_EQ((*reopened)->buffer_rows(), index->buffer_rows());
  EXPECT_EQ((*reopened)->num_tombstones(), index->num_tombstones());
  EXPECT_EQ((*reopened)->live_rows(), index->live_rows());

  // Identical answers, including post-reopen mutations.
  for (size_t qi = 0; qi < 5; ++qi) {
    const auto query = data.Vector(qi * 29 % data.size());
    auto before = index->Search(query, 8, StopRule::Exact());
    auto after = (*reopened)->Search(query, 8, StopRule::Exact());
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(before->neighbors.size(), after->neighbors.size());
    for (size_t i = 0; i < before->neighbors.size(); ++i) {
      EXPECT_EQ(before->neighbors[i].id, after->neighbors[i].id);
      EXPECT_DOUBLE_EQ(before->neighbors[i].distance,
                       after->neighbors[i].distance);
    }
  }

  // Sequence numbers continue where they left off: a reopened index
  // rejects live duplicates and accepts new rows.
  EXPECT_TRUE((*reopened)->Insert(data.Id(0), data.Vector(0))
                  .IsAlreadyExists());
  EXPECT_TRUE((*reopened)->Insert(5000, data.Vector(3)).ok());
  EXPECT_TRUE((*reopened)->Delete(5000).ok());
}

TEST(DynamicManifestTest, ReopenWorksForMemoryResidentMethods) {
  MemEnv env;
  Collection data = TestCollection(120);
  BuildAndSave(&env, data, "dyn-lsh", "lsh");
  auto reopened = DynamicIndex::Open(&env, "dyn-lsh");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->options().method, "lsh");
  auto result = (*reopened)->Search(data.Vector(10), 3, StopRule::Exact());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->neighbors.empty());
}

TEST(DynamicManifestTest, FsckPassesOnHealthyIndex) {
  MemEnv env;
  Collection data = TestCollection(150);
  BuildAndSave(&env, data, "dyn", "chunked");
  const Status status = FsckDynamic(&env, "dyn");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(DynamicManifestTest, FsckRejectsCorruptionTruncationAndMissingShards) {
  MemEnv env;
  Collection data = TestCollection(150);
  BuildAndSave(&env, data, "dyn", "chunked");
  const std::string manifest_path = DynamicManifestPath("dyn");
  auto bytes = ReadFileBytes(&env, manifest_path);
  ASSERT_TRUE(bytes.ok());

  {
    // One flipped payload byte fails the CRC.
    std::vector<uint8_t> bad = *bytes;
    bad[bad.size() / 2] ^= 0x40;
    ASSERT_TRUE(
        WriteFileBytes(&env, manifest_path, bad.data(), bad.size()).ok());
    EXPECT_TRUE(FsckDynamic(&env, "dyn").IsCorruption());
    EXPECT_TRUE(LoadDynamicManifest(&env, "dyn").status().IsCorruption());
  }
  {
    // Truncation is caught before any record is trusted.
    std::vector<uint8_t> bad(bytes->begin(),
                             bytes->begin() + bytes->size() / 2);
    ASSERT_TRUE(
        WriteFileBytes(&env, manifest_path, bad.data(), bad.size()).ok());
    EXPECT_TRUE(FsckDynamic(&env, "dyn").IsCorruption());
  }

  // Restore the manifest, then break a shard artifact.
  ASSERT_TRUE(
      WriteFileBytes(&env, manifest_path, bytes->data(), bytes->size()).ok());
  ASSERT_TRUE(FsckDynamic(&env, "dyn").ok());
  auto manifest = LoadDynamicManifest(&env, "dyn");
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->shards.empty());
  const std::string shard_desc =
      ShardArtifactBase("dyn", manifest->shards[0].id) + ".desc";
  ASSERT_TRUE(env.DeleteFile(shard_desc).ok());
  const Status missing = FsckDynamic(&env, "dyn");
  EXPECT_FALSE(missing.ok());
}

TEST(DynamicManifestTest, LoadRejectsBadHeaderFields) {
  MemEnv env;
  Collection data = TestCollection(80);
  BuildAndSave(&env, data, "dyn", "exact-scan");
  const std::string manifest_path = DynamicManifestPath("dyn");
  auto bytes = ReadFileBytes(&env, manifest_path);
  ASSERT_TRUE(bytes.ok());
  // Wrong magic: not a dynamic manifest at all.
  std::vector<uint8_t> bad = *bytes;
  bad[0] ^= 0xff;
  ASSERT_TRUE(
      WriteFileBytes(&env, manifest_path, bad.data(), bad.size()).ok());
  EXPECT_TRUE(LoadDynamicManifest(&env, "dyn").status().IsCorruption());
}

TEST(DynamicManifestTest, SaveDeletesMergedAwayShardArtifacts) {
  MemEnv env;
  Collection data = TestCollection(300);
  auto created = DynamicIndex::Create(&env, "dyn", Options("chunked", 30));
  ASSERT_TRUE(created.ok());
  DynamicIndex& index = **created;
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Insert(data.Id(i), data.Vector(i)).ok());
  }
  ASSERT_TRUE(index.Flush().ok());
  ASSERT_TRUE(index.Save().ok());
  // Count shard descriptor files on disk: after Save exactly the live
  // shards remain (merged-away artifacts were garbage-collected).
  auto manifest = LoadDynamicManifest(&env, "dyn");
  ASSERT_TRUE(manifest.ok());
  size_t on_disk = 0;
  for (uint32_t id = 0; id < 200; ++id) {
    if (env.FileExists(ShardArtifactBase("dyn", id) + ".desc")) ++on_disk;
  }
  EXPECT_EQ(on_disk, manifest->shards.size());

  // Compaction rewrites everything into one shard; after the next Save
  // only that shard's artifacts survive.
  ASSERT_TRUE(index.Compact().ok());
  ASSERT_TRUE(index.Save().ok());
  on_disk = 0;
  for (uint32_t id = 0; id < 200; ++id) {
    if (env.FileExists(ShardArtifactBase("dyn", id) + ".desc")) ++on_disk;
  }
  EXPECT_EQ(on_disk, 1u);
  EXPECT_TRUE(FsckDynamic(&env, "dyn").ok());
}

TEST(DynamicManifestTest, UnsavedMutationsNeverTouchTheOldManifest) {
  MemEnv env;
  Collection data = TestCollection(120);
  auto index = BuildAndSave(&env, data, "dyn", "exact-scan");
  const size_t saved_live = index->live_rows();

  // Mutate heavily without saving — flushes write shard artifacts, but the
  // durable manifest must still describe the saved state (crash = reopen).
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(index->Insert(10000 + i, data.Vector(i)).ok());
  }
  ASSERT_TRUE(index->Flush().ok());

  auto reopened = DynamicIndex::Open(&env, "dyn");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_rows(), saved_live);
  EXPECT_TRUE(FsckDynamic(&env, "dyn").ok());
}

TEST(DynamicManifestTest, ManifestRecordsExactState) {
  MemEnv env;
  Collection data = TestCollection(150);
  auto index = BuildAndSave(&env, data, "dyn", "chunked");
  auto manifest = LoadDynamicManifest(&env, "dyn");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->dim, kDescriptorDim);
  EXPECT_EQ(manifest->method, "chunked");
  EXPECT_EQ(manifest->shards.size(), index->num_shards());
  EXPECT_EQ(manifest->buffer_rows(), index->buffer_rows());
  EXPECT_EQ(manifest->tombstones.size(), index->num_tombstones());
  // Tombstones sorted by id, seqs in range.
  for (size_t i = 1; i < manifest->tombstones.size(); ++i) {
    EXPECT_LT(manifest->tombstones[i - 1].first,
              manifest->tombstones[i].first);
  }
  for (const auto& [id, seq] : manifest->tombstones) {
    EXPECT_GE(seq, 1u);
    EXPECT_LT(seq, manifest->next_seq);
  }
  for (const auto& record : manifest->shards) {
    EXPECT_GT(record.rows, 0u);
    EXPECT_LE(record.seq_floor, record.created_seq);
    EXPECT_LT(record.created_seq, manifest->next_seq);
  }
}

}  // namespace
}  // namespace qvt

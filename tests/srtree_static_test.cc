#include "srtree/static_sr_tree.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "descriptor/generator.h"
#include "srtree/sr_tree.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {
namespace {

Collection ClusteredCollection(size_t n, uint64_t seed = 1) {
  GeneratorConfig config;
  config.num_images = std::max<size_t>(8, n / 30 + 8);
  config.descriptors_per_image = 30;
  config.num_modes = std::max<size_t>(2, n / 300);
  config.seed = seed;
  Collection c = GenerateCollection(config);
  QVT_CHECK(c.size() >= n);
  std::vector<size_t> keep;
  for (size_t i = 0; i < n; ++i) keep.push_back(i);
  return c.Subset(keep);
}

std::vector<float> RandomQuery(Rng* rng) {
  std::vector<float> q(kDescriptorDim);
  for (auto& x : q) x = static_cast<float>(rng->UniformDouble(0, 100));
  return q;
}

SrTree BuildTree(const Collection* c, size_t leaf_capacity = 64) {
  SrTreeConfig config;
  config.leaf_capacity = leaf_capacity;
  SrTree tree(c, config);
  tree.BuildStatic();
  return tree;
}

std::vector<uint8_t> FileBytes(MemEnv* env, const std::string& path) {
  auto bytes = ReadFileBytes(env, path);
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes).value();
}

void PutBytes(MemEnv* env, const std::string& path,
              const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(WriteFileBytes(env, path, bytes.data(), bytes.size()).ok());
}

TEST(StaticSrTreeTest, SaveRejectsEmptyTree) {
  Collection c;
  SrTree tree(&c, SrTreeConfig{});
  tree.BuildStatic();
  MemEnv env;
  EXPECT_TRUE(tree.SaveStatic(&env, "t").IsInvalidArgument());
}

// Save, open, and require bit-identical k-NN answers and leaf partitions
// against the in-memory tree — the static file is an interchange format,
// not an approximation.
TEST(StaticSrTreeTest, SearchIsBitIdenticalToInMemoryTree) {
  const Collection c = ClusteredCollection(900, 5);
  const SrTree tree = BuildTree(&c);
  MemEnv env;
  ASSERT_TRUE(tree.SaveStatic(&env, "t").ok());

  auto loaded = StaticSrTree::Open(&env, "t");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->VerifyCrc().ok());
  EXPECT_TRUE(loaded->ValidateStructure().ok());
  EXPECT_EQ(loaded->num_points(), tree.size());

  EXPECT_EQ(loaded->LeafPartitions(), tree.LeafPartitions());

  Rng rng(17);
  for (size_t trial = 0; trial < 25; ++trial) {
    const std::vector<float> q = RandomQuery(&rng);
    const auto expected = tree.NearestNeighbors(q, 10);
    const auto got = loaded->NearestNeighbors(q, 10);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].position, expected[i].position);
      EXPECT_EQ(got[i].distance, expected[i].distance);  // bitwise
    }
  }
}

// LoadStatic rebuilds a full in-memory tree whose searches and structure
// match the original exactly.
TEST(StaticSrTreeTest, LoadStaticRoundTripsTheTree) {
  const Collection c = ClusteredCollection(700, 9);
  const SrTree tree = BuildTree(&c, 48);
  MemEnv env;
  ASSERT_TRUE(tree.SaveStatic(&env, "t").ok());

  auto loaded = SrTree::LoadStatic(&c, &env, "t");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), tree.size());
  ASSERT_TRUE(loaded->Validate().ok());
  EXPECT_EQ(loaded->LeafPartitions(), tree.LeafPartitions());

  Rng rng(23);
  for (size_t trial = 0; trial < 25; ++trial) {
    const std::vector<float> q = RandomQuery(&rng);
    const auto expected = tree.NearestNeighbors(q, 7);
    const auto got = loaded->NearestNeighbors(q, 7);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].position, expected[i].position);
      EXPECT_EQ(got[i].distance, expected[i].distance);
    }
  }
}

TEST(StaticSrTreeTest, CorruptedFilesAreRejectedWithStatus) {
  const Collection c = ClusteredCollection(400, 3);
  const SrTree tree = BuildTree(&c);
  MemEnv env;
  ASSERT_TRUE(tree.SaveStatic(&env, "t").ok());
  const std::vector<uint8_t> good = FileBytes(&env, "t");
  auto good_tree = StaticSrTree::Open(&env, "t");
  ASSERT_TRUE(good_tree.ok());
  const SrTreeFileLayout layout = SrTreeFileLayout::For(good_tree->header());

  {
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff;  // magic
    PutBytes(&env, "t", bad);
    const Status s = StaticSrTree::Open(&env, "t").status();
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("offset 0"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad(good.begin(), good.begin() + good.size() / 3);
    PutBytes(&env, "t", bad);  // truncation mid-record
    EXPECT_TRUE(StaticSrTree::Open(&env, "t").status().IsCorruption());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[kFormatHeaderBytes + 9] ^= 0x08;  // root's first_entry, no CRC fixup
    PutBytes(&env, "t", bad);
    EXPECT_TRUE(StaticSrTree::Open(&env, "t").status().IsCorruption());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[layout.entries_off + 1] ^= 0x08;  // centroid payload flip
    PutBytes(&env, "t", bad);
    // The structure is intact, so the open admits it; the CRC catches it.
    auto opened = StaticSrTree::Open(&env, "t");
    ASSERT_TRUE(opened.ok());
    const Status s = opened->VerifyCrc();
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("crc"), std::string::npos);
    EXPECT_TRUE(SrTree::LoadStatic(&c, &env, "t").status().IsCorruption());
  }
  {
    std::vector<uint8_t> garbage(2048);
    for (size_t i = 0; i < garbage.size(); ++i) {
      garbage[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    PutBytes(&env, "t", garbage);
    EXPECT_TRUE(StaticSrTree::Open(&env, "t").status().IsCorruption());
  }
  {
    PutBytes(&env, "t", good);
    EXPECT_TRUE(SrTree::LoadStatic(&c, &env, "t").ok());  // fixture intact
    EXPECT_TRUE(
        SrTree::LoadStatic(&c, &env, "missing").status().IsNotFound());
  }
}

// Structural defects with a refreshed CRC: only the structural checks can
// object, and the open runs them.
TEST(StaticSrTreeTest, StructuralCorruptionIsRejectedAfterCrcFixup) {
  const Collection c = ClusteredCollection(400, 4);
  const SrTree tree = BuildTree(&c);
  MemEnv env;
  ASSERT_TRUE(tree.SaveStatic(&env, "t").ok());
  const std::vector<uint8_t> good = FileBytes(&env, "t");
  auto good_tree = StaticSrTree::Open(&env, "t");
  ASSERT_TRUE(good_tree.ok());
  ASSERT_GE(good_tree->num_leaves(), 2u);
  const SrTreeFileLayout layout = SrTreeFileLayout::For(good_tree->header());

  const auto expect_rejected = [&](std::vector<uint8_t> bytes,
                                   const std::string& what) {
    const uint64_t footer_off = bytes.size() - kFormatFooterBytes;
    const uint32_t crc = Crc32(bytes.data(), footer_off);
    std::memcpy(bytes.data() + footer_off, &crc, sizeof(crc));
    PutBytes(&env, "t", bytes);
    const Status s = StaticSrTree::Open(&env, "t").status();
    EXPECT_TRUE(s.IsCorruption()) << what;
    EXPECT_NE(s.ToString().find(what), std::string::npos) << s.ToString();
    EXPECT_TRUE(SrTree::LoadStatic(&c, &env, "t").status().IsCorruption());
  };

  // The root's parent link points at a bogus node.
  std::vector<uint8_t> bad_parent = good;
  const uint32_t bogus = 7;
  std::memcpy(bad_parent.data() + kFormatHeaderBytes + 4, &bogus,
              sizeof(bogus));
  expect_rejected(bad_parent, "parent");

  // The leaf directory names the first leaf twice.
  std::vector<uint8_t> repeated_leaf = good;
  std::memcpy(repeated_leaf.data() + layout.leaf_dir_off + kSrTreeLeafDirBytes,
              repeated_leaf.data() + layout.leaf_dir_off, sizeof(uint32_t));
  expect_rejected(repeated_leaf, "repeats");
}

}  // namespace
}  // namespace qvt

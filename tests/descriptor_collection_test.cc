#include "descriptor/collection.h"

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "descriptor/types.h"

namespace qvt {
namespace {

std::vector<float> Vec24(float fill) {
  return std::vector<float>(kDescriptorDim, fill);
}

TEST(TypesTest, RecordLayoutIs100BytesFor24d) {
  EXPECT_EQ(DescriptorRecordBytes(kDescriptorDim), 100u);
  EXPECT_EQ(DescriptorRecordBytes(2), 12u);
}

TEST(CollectionTest, AppendAndAccess) {
  Collection c(3);
  c.Append(7, std::vector<float>{1, 2, 3}, 99);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Id(0), 7u);
  EXPECT_EQ(c.Image(0), 99u);
  EXPECT_FLOAT_EQ(c.Vector(0)[1], 2.0f);
  EXPECT_EQ(c.RawData().size(), 3u);
}

TEST(CollectionTest, SubsetPreservesIdsAndValues) {
  Collection c(2);
  for (int i = 0; i < 5; ++i) {
    c.Append(static_cast<DescriptorId>(100 + i),
             std::vector<float>{static_cast<float>(i), 0}, i);
  }
  std::vector<size_t> picks = {4, 0, 2};
  const Collection sub = c.Subset(picks);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.Id(0), 104u);
  EXPECT_EQ(sub.Id(1), 100u);
  EXPECT_EQ(sub.Id(2), 102u);
  EXPECT_FLOAT_EQ(sub.Vector(0)[0], 4.0f);
  EXPECT_EQ(sub.Image(0), 4u);
}

TEST(CollectionTest, SaveLoadRoundTrip) {
  MemEnv env;
  Collection c;
  for (int i = 0; i < 10; ++i) {
    c.Append(static_cast<DescriptorId>(i * 3), Vec24(static_cast<float>(i)),
             static_cast<ImageId>(i / 2));
  }
  ASSERT_TRUE(c.Save(&env, "col").ok());

  // Record format: exactly 100 bytes per descriptor.
  EXPECT_EQ(*env.GetFileSize("col"), 10u * 100u);

  auto loaded = Collection::Load(&env, "col");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded->Id(i), c.Id(i));
    EXPECT_EQ(loaded->Image(i), c.Image(i));
    for (size_t d = 0; d < kDescriptorDim; ++d) {
      EXPECT_FLOAT_EQ(loaded->Vector(i)[d], c.Vector(i)[d]);
    }
  }
}

TEST(CollectionTest, LoadRejectsTruncatedFile) {
  MemEnv env;
  std::vector<uint8_t> bytes(150, 0);  // not a multiple of 100
  ASSERT_TRUE(WriteFileBytes(&env, "bad", bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(Collection::Load(&env, "bad").status().IsCorruption());
}

TEST(CollectionTest, LoadRejectsNonFiniteValuesNamingTheRecord) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    MemEnv env;
    Collection c;
    for (int i = 0; i < 4; ++i) {
      c.Append(static_cast<DescriptorId>(10 + i), Vec24(1.0f));
    }
    ASSERT_TRUE(c.Save(&env, "col").ok());
    auto bytes = ReadFileBytes(&env, "col");
    ASSERT_TRUE(bytes.ok());
    // Record 2, coordinate 5.
    std::memcpy(bytes->data() + 2 * DescriptorRecordBytes(kDescriptorDim) +
                    sizeof(DescriptorId) + 5 * sizeof(float),
                &bad, sizeof(bad));
    ASSERT_TRUE(
        WriteFileBytes(&env, "col", bytes->data(), bytes->size()).ok());
    const Status s = Collection::Load(&env, "col").status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("record 2"), std::string::npos)
        << s.ToString();
  }
}

TEST(CollectionTest, LoadMissingFileFails) {
  MemEnv env;
  EXPECT_FALSE(Collection::Load(&env, "missing").ok());
}

TEST(CollectionTest, EmptyCollectionRoundTrip) {
  MemEnv env;
  Collection c;
  ASSERT_TRUE(c.Save(&env, "empty").ok());
  auto loaded = Collection::Load(&env, "empty");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(CollectionTest, LoadWithoutImageSidecarStillWorks) {
  MemEnv env;
  Collection c;
  c.Append(1, Vec24(0.5f), 42);
  ASSERT_TRUE(c.Save(&env, "col").ok());
  ASSERT_TRUE(env.DeleteFile("col.img").ok());
  auto loaded = Collection::Load(&env, "col");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Image(0), 0u);  // default
}

TEST(CollectionTest, CustomDimension) {
  MemEnv env;
  Collection c(8);
  c.Append(5, std::vector<float>(8, 1.5f));
  ASSERT_TRUE(c.Save(&env, "c8").ok());
  EXPECT_EQ(*env.GetFileSize("c8"), DescriptorRecordBytes(8));
  auto loaded = Collection::Load(&env, "c8", 8);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim(), 8u);
  EXPECT_FLOAT_EQ(loaded->Vector(0)[7], 1.5f);
}

}  // namespace
}  // namespace qvt

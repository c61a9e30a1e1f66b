#include "storage/format.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.h"

namespace qvt {
namespace {

constexpr uint64_t kTestMagic = 0x3130545345545651ull;  // "QVTEST01"

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE 802.3 check values.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("a", 1), 0xe8b7be43u);
}

TEST(Crc32Test, SeedChainsIncrementalUpdates) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t part = Crc32(data.data(), 7);
  EXPECT_EQ(Crc32(data.data() + 7, data.size() - 7, part), whole);
}

TEST(AlignUpTest, RoundsToSectionAlignment) {
  EXPECT_EQ(AlignUp(0), 0u);
  EXPECT_EQ(AlignUp(1), 64u);
  EXPECT_EQ(AlignUp(64), 64u);
  EXPECT_EQ(AlignUp(65), 128u);
  EXPECT_EQ(AlignUp(10, 8), 16u);
}

TEST(LoadTest, ReadsUnalignedLittleEndianFields) {
  // One spare byte up front forces every load through an unaligned
  // address — the exact case the memcpy readers exist for (UBSan-fatal
  // as a plain cast).
  uint8_t buf[1 + 8 + 8 + 4 + 8] = {0};
  const uint32_t u32 = 0xdeadbeefu;
  const uint64_t u64 = 0x0123456789abcdefull;
  const float f32 = 3.5f;
  const double f64 = -2.25;
  std::memcpy(buf + 1, &u32, 4);
  std::memcpy(buf + 5, &u64, 8);
  std::memcpy(buf + 13, &f32, 4);
  std::memcpy(buf + 17, &f64, 8);
  EXPECT_EQ(LoadU32(buf + 1), u32);
  EXPECT_EQ(LoadU64(buf + 5), u64);
  EXPECT_EQ(LoadF32(buf + 13), f32);
  EXPECT_EQ(LoadF64(buf + 17), f64);
}

// Writes a tiny two-section file through FormatWriter and re-opens it with
// FormatView: envelope, alignment, and CRC must all line up.
TEST(FormatWriterTest, RoundTripEnvelope) {
  MemEnv env;
  auto writer = FormatWriter::Create(&env, "f", kTestMagic);
  ASSERT_TRUE(writer.ok());

  std::vector<uint8_t> header(kFormatHeaderBytes, 0);
  std::memcpy(header.data(), &kTestMagic, sizeof(kTestMagic));
  const uint32_t version = 1;
  std::memcpy(header.data() + 8, &version, sizeof(version));
  ASSERT_TRUE(writer->Append(header.data(), header.size()).ok());

  auto s1 = writer->BeginSection();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1 % kSectionAlignment, 0u);
  ASSERT_TRUE(writer->Append("abc", 3).ok());

  auto s2 = writer->BeginSection();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2 % kSectionAlignment, 0u);
  EXPECT_GT(*s2, *s1);
  ASSERT_TRUE(writer->Append("defgh", 5).ok());

  const uint64_t footer_off = writer->offset();
  ASSERT_TRUE(writer->Finish().ok());

  // The temp file is gone; only the final name remains.
  EXPECT_FALSE(env.FileExists("f.tmp"));
  auto size = env.GetFileSize("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, footer_off + kFormatFooterBytes);

  auto bytes = env.NewMemoryMappedFile("f");
  ASSERT_TRUE(bytes.ok());
  const FormatView view((*bytes)->bytes(), "f");
  EXPECT_TRUE(view.CheckEnvelope(kTestMagic, version).ok());
  EXPECT_TRUE(view.VerifyCrc().ok());
  auto section = view.Section(*s2, 5, 1, "payload");
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(std::memcmp(*section, "defgh", 5), 0);
}

TEST(FormatViewTest, RejectsWrongMagicVersionAndTruncation) {
  MemEnv env;
  auto writer = FormatWriter::Create(&env, "f", kTestMagic);
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> header(kFormatHeaderBytes, 0);
  std::memcpy(header.data(), &kTestMagic, sizeof(kTestMagic));
  const uint32_t version = 1;
  std::memcpy(header.data() + 8, &version, sizeof(version));
  ASSERT_TRUE(writer->Append(header.data(), header.size()).ok());
  ASSERT_TRUE(writer->Finish().ok());

  auto bytes = ReadFileBytes(&env, "f");
  ASSERT_TRUE(bytes.ok());

  {
    std::vector<uint8_t> bad = *bytes;
    bad[0] ^= 0xff;
    const Status s =
        FormatView(bad, "f").CheckEnvelope(kTestMagic, version);
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("f"), std::string::npos);
    EXPECT_NE(s.ToString().find("offset 0"), std::string::npos);
  }
  {
    const Status s =
        FormatView(*bytes, "f").CheckEnvelope(kTestMagic, version + 1);
    EXPECT_TRUE(s.IsCorruption());
  }
  {
    std::vector<uint8_t> bad(bytes->begin(), bytes->begin() + 20);
    EXPECT_TRUE(FormatView(bad, "f")
                    .CheckEnvelope(kTestMagic, version)
                    .IsCorruption());
  }
  {
    std::vector<uint8_t> bad = *bytes;
    bad[kFormatHeaderBytes - 1] ^= 0x01;  // payload flip: envelope passes,
    const FormatView view(bad, "f");      // the CRC catches it
    EXPECT_TRUE(view.CheckEnvelope(kTestMagic, version).ok());
    const Status s = view.VerifyCrc();
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("crc"), std::string::npos);
  }
}

TEST(FormatViewTest, SectionBoundsAreOverflowSafe) {
  std::vector<uint8_t> bytes(kFormatHeaderBytes + kFormatFooterBytes + 64, 0);
  const FormatView view(bytes, "f");
  EXPECT_TRUE(view.Section(kFormatHeaderBytes, 4, 16, "ok").ok());
  // Count * record size would wrap around 2^64 without the guarded check.
  EXPECT_TRUE(view.Section(kFormatHeaderBytes, 1ull << 62, 16, "huge")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      view.Section(bytes.size() * 2, 1, 1, "past end").status().IsCorruption());
}

}  // namespace
}  // namespace qvt

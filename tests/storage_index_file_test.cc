#include "storage/index_file.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qvt {
namespace {

ChunkIndexEntry MakeEntry(size_t dim, float center, double radius,
                          uint64_t page, uint32_t pages, uint32_t count) {
  ChunkIndexEntry entry;
  entry.bounds = Sphere(std::vector<float>(dim, center), radius);
  entry.location = ChunkLocation{page, pages, count};
  return entry;
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

TEST(IndexFileTest, RoundTrip) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {
      MakeEntry(24, 1.0f, 2.5, 0, 3, 100),
      MakeEntry(24, -4.0f, 0.0, 3, 1, 7),
  };
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());

  auto loaded = ReadIndexFile(&env, "idx", 24);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].bounds.center, entries[0].bounds.center);
  EXPECT_DOUBLE_EQ((*loaded)[0].bounds.radius, 2.5);
  EXPECT_EQ((*loaded)[0].location, entries[0].location);
  EXPECT_EQ((*loaded)[1].location.first_page, 3u);
  EXPECT_EQ((*loaded)[1].location.num_descriptors, 7u);
}

// The round trip must hold at every dim parity: at odd dims the f64 radius
// would sit at a 4-mod-8 offset in a packed record, which is exactly the
// case the column sections + memcpy readers make well-defined (this test is
// the UBSan canary for satellite record-layout bugs).
TEST(IndexFileTest, RoundTripAtAwkwardDims) {
  for (const size_t dim : {size_t{1}, size_t{3}, size_t{23}, size_t{24}}) {
    SCOPED_TRACE(dim);
    MemEnv env;
    std::vector<ChunkIndexEntry> entries;
    for (size_t i = 0; i < 5; ++i) {
      entries.push_back(MakeEntry(dim, 0.5f * static_cast<float>(i) - 1.0f,
                                  0.25 * static_cast<double>(i),
                                  i * 2, 2, 10 + static_cast<uint32_t>(i)));
    }
    ASSERT_TRUE(WriteIndexFile(&env, "idx", dim, entries).ok());

    auto loaded = ReadIndexFile(&env, "idx", dim);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ((*loaded)[i].bounds.center, entries[i].bounds.center);
      EXPECT_DOUBLE_EQ((*loaded)[i].bounds.radius, entries[i].bounds.radius);
      EXPECT_EQ((*loaded)[i].location, entries[i].location);
    }
  }
}

TEST(IndexFileTest, HeaderDeclaresAlignedSections) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 23, {MakeEntry(23, 1.0f, 1.0, 0, 1, 1)})
          .ok());
  auto view = OpenIndexFile(&env, "idx", 23);
  ASSERT_TRUE(view.ok());
  const IndexFileHeader& h = view->header();
  EXPECT_EQ(h.version, kIndexFormatVersion);
  EXPECT_EQ(h.dim, 23u);
  EXPECT_EQ(h.num_chunks, 1u);
  EXPECT_EQ(h.centroids_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.radii_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.directory_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.footer_off + kFormatFooterBytes, *env.GetFileSize("idx"));
}

TEST(IndexFileTest, EmptyIndexRejectedAtWrite) {
  MemEnv env;
  // A zero-entry index is not representable (ChunkIndex::Build rejects an
  // empty chunking first); the writer refuses rather than emitting a file
  // every reader would call corrupt.
  EXPECT_TRUE(WriteIndexFile(&env, "idx", 24, {}).IsInvalidArgument());
}

TEST(IndexFileTest, WrongDimEntryRejectedAtWrite) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {MakeEntry(8, 1.0f, 1.0, 0, 1, 1)};
  EXPECT_TRUE(WriteIndexFile(&env, "idx", 24, entries).IsInvalidArgument());
}

TEST(IndexFileTest, FlippedMagicRejectedWithPathAndOffset) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 24, {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)})
          .ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  bytes[0] ^= 0xff;
  PutBytes(&env, "idx", bytes);

  const Status s = ReadIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("idx"), std::string::npos);
  EXPECT_NE(s.ToString().find("offset 0"), std::string::npos);
  // The open runs the same envelope check.
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());
}

TEST(IndexFileTest, TruncationMidRecordRejected) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 24, {MakeEntry(24, 1.0f, 1.0, 0, 1, 1),
                                       MakeEntry(24, 2.0f, 1.0, 1, 1, 2)})
          .ok());
  const std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  // Chop the file mid-way through the radii section.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  PutBytes(&env, "idx", truncated);
  EXPECT_TRUE(ReadIndexFile(&env, "idx", 24).status().IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // Shorter than even a header.
  std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 20);
  PutBytes(&env, "idx", stub);
  EXPECT_TRUE(ReadIndexFile(&env, "idx", 24).status().IsCorruption());
}

TEST(IndexFileTest, CorruptedCrcRejectedByDeserializingOpenOnly) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 24, {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)})
          .ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  bytes[kFormatHeaderBytes + 1] ^= 0x20;  // flip one centroid payload bit
  PutBytes(&env, "idx", bytes);

  const Status s = ReadIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("crc"), std::string::npos);

  // The open checks entries, not the checksum, so it admits a flip that
  // leaves every entry valid; VerifyCrc is the explicit check fsck,
  // ChunkIndex::Validate and ReadIndexFile run.
  auto opened = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->VerifyCrc().IsCorruption());
}

TEST(IndexFileTest, GarbageFileRejected) {
  MemEnv env;
  std::vector<uint8_t> garbage(4096);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  PutBytes(&env, "idx", garbage);
  EXPECT_TRUE(ReadIndexFile(&env, "idx", 24).status().IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());
}

TEST(IndexFileTest, DimMismatchRejected) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)};
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  const Status s = ReadIndexFile(&env, "idx", 16).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("dim"), std::string::npos);
}

TEST(IndexFileTest, InvalidEntryContentsRejected) {
  MemEnv env;
  // A zero-page entry is structurally invalid. Write it manually since
  // WriteIndexFile would happily serialize it.
  std::vector<ChunkIndexEntry> entries = {MakeEntry(24, 0.0f, 1.0, 0, 1, 5)};
  entries[0].location.num_pages = 0;
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  EXPECT_TRUE(ReadIndexFile(&env, "idx", 24).status().IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // A negative radius likewise — rewrite the radius column in place and
  // refresh the footer CRC so only the semantic check can object.
  entries[0].location.num_pages = 1;
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  auto view = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(view.ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  const double bad_radius = -1.0;
  std::memcpy(bytes.data() + view->header().radii_off, &bad_radius,
              sizeof(bad_radius));
  const uint32_t crc = Crc32(bytes.data(), view->header().footer_off);
  std::memcpy(bytes.data() + view->header().footer_off, &crc, sizeof(crc));
  PutBytes(&env, "idx", bytes);
  const Status s = ReadIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("radius"), std::string::npos);
  const Status opened = OpenIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(opened.IsCorruption());
  EXPECT_NE(opened.ToString().find("radius"), std::string::npos);
}

TEST(IndexFileTest, MappedViewIsZeroCopy) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {MakeEntry(24, 3.0f, 1.5, 0, 2, 9)};
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  auto view = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(view.ok());
  // Spans point into one contiguous buffer in file-offset order, with the
  // kernel-contract alignment on the centroid matrix.
  const auto* base = reinterpret_cast<const uint8_t*>(view->centroids().data());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view->radii().data()) - base,
            static_cast<ptrdiff_t>(view->header().radii_off -
                                   view->header().centroids_off));
  EXPECT_EQ(view->centroids()[0], 3.0f);
  EXPECT_DOUBLE_EQ(view->radii()[0], 1.5);
  EXPECT_EQ(view->locations()[0].num_descriptors, 9u);
}

}  // namespace
}  // namespace qvt

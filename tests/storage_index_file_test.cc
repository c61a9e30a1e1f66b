#include "storage/index_file.h"

#include <cstring>
#include <limits>
#include <span>
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
  entry.rect_lo.assign(dim, center - static_cast<float>(radius));
  entry.rect_hi.assign(dim, center + static_cast<float>(radius));
  return entry;
}

// The whole read path: the open's envelope and entry checks, then the CRC.
Status OpenAndVerify(MemEnv* env, const std::string& path, size_t dim) {
  auto view = OpenIndexFile(env, path, dim);
  if (!view.ok()) return view.status();
  return view->VerifyCrc();
}

// Every column of `view` holds what `entries` wrote.
void ExpectViewMatches(const IndexFileView& view,
                       const std::vector<ChunkIndexEntry>& entries) {
  ASSERT_EQ(view.num_chunks(), entries.size());
  const size_t dim = view.dim();
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::span<const float> centroid =
        view.centroids().subspan(i * dim, dim);
    EXPECT_EQ(std::vector<float>(centroid.begin(), centroid.end()),
              entries[i].bounds.center);
    EXPECT_DOUBLE_EQ(view.radii()[i], entries[i].bounds.radius);
    EXPECT_EQ(view.locations()[i], entries[i].location);
    const std::span<const float> lo = view.rect_lo(i);
    const std::span<const float> hi = view.rect_hi(i);
    EXPECT_EQ(std::vector<float>(lo.begin(), lo.end()), entries[i].rect_lo);
    EXPECT_EQ(std::vector<float>(hi.begin(), hi.end()), entries[i].rect_hi);
  }
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

// Refreshes the footer CRC after an in-place edit, so only the check under
// test can object to the file.
void Reseal(std::vector<uint8_t>* bytes) {
  const size_t footer_off = bytes->size() - kFormatFooterBytes;
  const uint32_t crc = Crc32(bytes->data(), footer_off);
  std::memcpy(bytes->data() + footer_off, &crc, sizeof(crc));
}

// Overwrites `size` bytes at `offset` of the file and reseals it.
void Patch(MemEnv* env, const std::string& path, uint64_t offset,
           const void* data, size_t size) {
  std::vector<uint8_t> bytes = FileBytes(env, path);
  std::memcpy(bytes.data() + offset, data, size);
  Reseal(&bytes);
  PutBytes(env, path, bytes);
}

TEST(IndexFileTest, RoundTrip) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {
      MakeEntry(24, 1.0f, 2.5, 0, 3, 100),
      MakeEntry(24, -4.0f, 0.0, 3, 1, 7),
  };
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());

  auto view = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->VerifyCrc().ok());
  ExpectViewMatches(*view, entries);
  EXPECT_DOUBLE_EQ(view->radii()[0], 2.5);
  EXPECT_EQ(view->locations()[1].first_page, 3u);
  EXPECT_EQ(view->locations()[1].num_descriptors, 7u);
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

    auto view = OpenIndexFile(&env, "idx", dim);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(view->VerifyCrc().ok());
    ExpectViewMatches(*view, entries);
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
  EXPECT_EQ(h.rects_off % kSectionAlignment, 0u);
  EXPECT_GT(h.rects_off, h.directory_off);
  EXPECT_EQ(h.footer_off, h.rects_off + 2 * 23 * sizeof(float));
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
  entries = {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)};
  entries[0].rect_hi.pop_back();
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

  const Status s = OpenAndVerify(&env, "idx", 24);
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
  EXPECT_TRUE(OpenAndVerify(&env, "idx", 24).IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // Shorter than even a header.
  std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 20);
  PutBytes(&env, "idx", stub);
  EXPECT_TRUE(OpenAndVerify(&env, "idx", 24).IsCorruption());
}

TEST(IndexFileTest, CorruptedCrcRejectedByDeserializingOpenOnly) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 24, {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)})
          .ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  bytes[kFormatHeaderBytes + 1] ^= 0x20;  // flip one centroid payload bit
  PutBytes(&env, "idx", bytes);

  const Status s = OpenAndVerify(&env, "idx", 24);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("crc"), std::string::npos);

  // The open checks entries, not the checksum, so it admits a flip that
  // leaves every entry valid; VerifyCrc is the explicit check fsck and
  // ChunkIndex::Validate run.
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
  EXPECT_TRUE(OpenAndVerify(&env, "idx", 24).IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());
}

TEST(IndexFileTest, DimMismatchRejected) {
  MemEnv env;
  std::vector<ChunkIndexEntry> entries = {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)};
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  const Status s = OpenAndVerify(&env, "idx", 16);
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
  EXPECT_TRUE(OpenAndVerify(&env, "idx", 24).IsCorruption());
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // A negative radius likewise — rewrite the radius column in place and
  // refresh the footer CRC so only the semantic check can object.
  entries[0].location.num_pages = 1;
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24, entries).ok());
  auto view = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(view.ok());
  const double bad_radius = -1.0;
  Patch(&env, "idx", view->header().radii_off, &bad_radius, sizeof(bad_radius));
  const Status s = OpenAndVerify(&env, "idx", 24);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("radius"), std::string::npos);
  const Status opened = OpenIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(opened.IsCorruption());
  EXPECT_NE(opened.ToString().find("radius"), std::string::npos);
}

// Hostile rectangle bytes: a lower bound above its upper bound, and a NaN
// on either side, are each a Corruption naming the rectangle, after a CRC
// refresh so the open's entry check is what objects.
TEST(IndexFileTest, InvalidRectangleRejected) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    const char* name;
    size_t column;  // 0: lo, 1: hi
    float value;
  } cases[] = {
      {"lo above hi", 0, 9.0f},
      {"hi below lo", 1, -9.0f},
      {"nan lo", 0, nan},
      {"nan hi", 1, nan},
      {"infinite hi", 1, inf},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    MemEnv env;
    ASSERT_TRUE(WriteIndexFile(&env, "idx", 24,
                               {MakeEntry(24, 1.0f, 1.0, 0, 1, 1),
                                MakeEntry(24, 2.0f, 1.0, 1, 1, 1)})
                    .ok());
    auto view = OpenIndexFile(&env, "idx", 24);
    ASSERT_TRUE(view.ok());
    // Dimension 5 of the second entry.
    const uint64_t offset = view->header().rects_off +
                            ((2 + c.column) * 24 + 5) * sizeof(float);
    Patch(&env, "idx", offset, &c.value, sizeof(c.value));
    const Status s = OpenIndexFile(&env, "idx", 24).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("rectangle in entry 1"), std::string::npos)
        << s.ToString();
  }
}

// A rectangle section cut short, or declared outside the file, is a Status.
TEST(IndexFileTest, TruncatedOrMisplacedRectSectionRejected) {
  MemEnv env;
  ASSERT_TRUE(WriteIndexFile(&env, "idx", 24,
                             {MakeEntry(24, 1.0f, 1.0, 0, 1, 1),
                              MakeEntry(24, 2.0f, 1.0, 1, 1, 1)})
                  .ok());
  const std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  auto view = OpenIndexFile(&env, "idx", 24);
  ASSERT_TRUE(view.ok());
  const IndexFileHeader h = view->header();

  // Cut mid-section, then give the shorter file a valid footer and header
  // word, so the envelope and CRC pass and only the layout can object.
  std::vector<uint8_t> cut(bytes.begin(),
                           bytes.begin() + h.rects_off + 24 * sizeof(float));
  cut.insert(cut.end(), bytes.end() - kFormatFooterBytes, bytes.end());
  const uint64_t footer_off = cut.size() - kFormatFooterBytes;
  std::memcpy(cut.data() + 48, &footer_off, sizeof(footer_off));
  Reseal(&cut);
  PutBytes(&env, "idx", cut);
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // Plain truncation inside the section fails the envelope.
  PutBytes(&env, "idx",
           std::vector<uint8_t>(bytes.begin(), bytes.end() - 40));
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());

  // A rects_off pointing past the end of the file.
  PutBytes(&env, "idx", bytes);
  const uint64_t far = AlignUp(bytes.size() + 4096);
  Patch(&env, "idx", 56, &far, sizeof(far));
  EXPECT_TRUE(OpenIndexFile(&env, "idx", 24).status().IsCorruption());
}

// A version-1 file (magic "QVTIDX01", no rectangle section) is not read:
// there is one index format.
TEST(IndexFileTest, VersionOneFileRejected) {
  MemEnv env;
  ASSERT_TRUE(
      WriteIndexFile(&env, "idx", 24, {MakeEntry(24, 1.0f, 1.0, 0, 1, 1)})
          .ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "idx");
  const uint64_t v1_magic = 0x3130584449545651ull;  // "QVTIDX01"
  const uint32_t v1_version = 1;
  std::memcpy(bytes.data(), &v1_magic, sizeof(v1_magic));
  std::memcpy(bytes.data() + 8, &v1_version, sizeof(v1_version));
  std::memcpy(bytes.data() + bytes.size() - 8, &v1_magic, sizeof(v1_magic));
  Reseal(&bytes);
  PutBytes(&env, "idx", bytes);
  const Status s = OpenIndexFile(&env, "idx", 24).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("bad magic"), std::string::npos)
      << s.ToString();
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

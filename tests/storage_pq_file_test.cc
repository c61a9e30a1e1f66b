#include "storage/pq_file.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qvt {
namespace {

/// A valid little fixture: dim 24, m 8 (sub_dim 3), ksub 4, three vectors.
struct Fixture {
  size_t dim = 24;
  size_t m = 8;
  size_t ksub = 4;
  std::vector<float> codebooks;
  std::vector<uint8_t> codes;
  std::vector<uint32_t> ids;

  Fixture() {
    codebooks.resize(m * ksub * (dim / m));
    for (size_t j = 0; j < codebooks.size(); ++j) {
      codebooks[j] = 0.25f * static_cast<float>(j % 17) - 1.0f;
    }
    codes = {0, 1, 2, 3, 0, 1, 2, 3,  //
             3, 2, 1, 0, 3, 2, 1, 0,  //
             1, 1, 1, 1, 2, 2, 2, 2};
    ids = {7, 42, 1000};
  }

  Status Write(Env* env, const std::string& path) const {
    return WritePqFile(env, path, dim, m, ksub, codebooks, codes, ids);
  }
};

std::vector<uint8_t> FileBytes(MemEnv* env, const std::string& path) {
  auto bytes = ReadFileBytes(env, path);
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes).value();
}

void PutBytes(MemEnv* env, const std::string& path,
              const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(WriteFileBytes(env, path, bytes.data(), bytes.size()).ok());
}

TEST(PqFileTest, RoundTripBothOpenModes) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  auto view = OpenPqFile(&env, "pqc", 24);
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view->dim(), 24u);
  EXPECT_EQ(view->m(), 8u);
  EXPECT_EQ(view->ksub(), 4u);
  EXPECT_EQ(view->sub_dim(), 3u);
  EXPECT_EQ(view->num_vectors(), 3u);
  ASSERT_EQ(view->codebooks().size(), fx.codebooks.size());
  EXPECT_EQ(0, std::memcmp(view->codebooks().data(), fx.codebooks.data(),
                           fx.codebooks.size() * sizeof(float)));
  ASSERT_EQ(view->codes().size(), fx.codes.size());
  EXPECT_EQ(0, std::memcmp(view->codes().data(), fx.codes.data(),
                           fx.codes.size()));
  ASSERT_EQ(view->ids().size(), 3u);
  EXPECT_EQ(view->ids()[2], 1000u);
  EXPECT_TRUE(view->VerifyCrc().ok());
  EXPECT_TRUE(view->ValidateEntries().ok());
}

TEST(PqFileTest, HeaderDeclaresAlignedSections) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  auto view = OpenPqFile(&env, "pqc", 24);
  ASSERT_TRUE(view.ok());
  const PqFileHeader& h = view->header();
  EXPECT_EQ(h.version, kPqFormatVersion);
  EXPECT_EQ(h.codebooks_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.codes_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.ids_off % kSectionAlignment, 0u);
  EXPECT_EQ(h.footer_off + kFormatFooterBytes, *env.GetFileSize("pqc"));
  // The code matrix base is aligned for the SIMD kernel contract.
  EXPECT_EQ(
      reinterpret_cast<uintptr_t>(view->codes().data()) % 32, 0u);
}

TEST(PqFileTest, BadShapesRejectedAtWrite) {
  MemEnv env;
  Fixture fx;
  EXPECT_TRUE(WritePqFile(&env, "pqc", 24, 5, 4, fx.codebooks, fx.codes,
                          fx.ids)
                  .IsInvalidArgument());  // m does not divide dim
  EXPECT_TRUE(WritePqFile(&env, "pqc", 24, 8, 257, fx.codebooks, fx.codes,
                          fx.ids)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      WritePqFile(&env, "pqc", 24, 8, 4, fx.codebooks, fx.codes, {})
          .IsInvalidArgument());  // zero vectors
  EXPECT_TRUE(WritePqFile(&env, "pqc", 24, 8, 4,
                          std::span<const float>(fx.codebooks.data(), 5),
                          fx.codes, fx.ids)
                  .IsInvalidArgument());  // codebook size mismatch
  EXPECT_TRUE(WritePqFile(&env, "pqc", 24, 8, 4, fx.codebooks,
                          std::span<const uint8_t>(fx.codes.data(), 7),
                          fx.ids)
                  .IsInvalidArgument());  // code size mismatch
}

TEST(PqFileTest, FlippedMagicRejectedWithPathAndOffset) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "pqc");
  bytes[0] ^= 0xff;
  PutBytes(&env, "pqc", bytes);

  const Status s = OpenPqFile(&env, "pqc", 24).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("pqc"), std::string::npos);
  EXPECT_NE(s.ToString().find("offset 0"), std::string::npos);
}

TEST(PqFileTest, TruncationRejected) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  const std::vector<uint8_t> bytes = FileBytes(&env, "pqc");
  // Chop mid-way through the code section.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  PutBytes(&env, "pqc", truncated);
  EXPECT_TRUE(OpenPqFile(&env, "pqc", 24).status().IsCorruption());

  // Shorter than even a header.
  std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 20);
  PutBytes(&env, "pqc", stub);
  EXPECT_TRUE(OpenPqFile(&env, "pqc", 24).status().IsCorruption());
}

TEST(PqFileTest, CorruptedCrcRejectedByDeserializingOpenOnly) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  std::vector<uint8_t> bytes = FileBytes(&env, "pqc");
  bytes[kFormatHeaderBytes + 1] ^= 0x20;  // flip one codebook payload bit
  PutBytes(&env, "pqc", bytes);

  // The open checks entries, not the checksum, so it admits a flip that
  // leaves every entry valid; VerifyCrc is the explicit check fsck runs.
  auto opened = OpenPqFile(&env, "pqc", 24);
  ASSERT_TRUE(opened.ok());
  const Status s = opened->VerifyCrc();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("crc"), std::string::npos);
}

TEST(PqFileTest, DimMismatchRejected) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  const Status s = OpenPqFile(&env, "pqc", 16).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("dim"), std::string::npos);
}

TEST(PqFileTest, OutOfRangeCodeRejected) {
  MemEnv env;
  const Fixture fx;
  ASSERT_TRUE(fx.Write(&env, "pqc").ok());
  auto view = OpenPqFile(&env, "pqc", 24);
  ASSERT_TRUE(view.ok());
  // Plant a code >= ksub and refresh the CRC so only the semantic check can
  // object.
  std::vector<uint8_t> bytes = FileBytes(&env, "pqc");
  bytes[view->header().codes_off] = 200;
  const uint32_t crc = Crc32(bytes.data(), view->header().footer_off);
  std::memcpy(bytes.data() + view->header().footer_off, &crc, sizeof(crc));
  PutBytes(&env, "pqc", bytes);

  const Status s = OpenPqFile(&env, "pqc", 24).status();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.ToString().find("out of range"), std::string::npos);
}

TEST(PqFileTest, GarbageFileRejected) {
  MemEnv env;
  std::vector<uint8_t> garbage(4096);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  PutBytes(&env, "pqc", garbage);
  EXPECT_TRUE(OpenPqFile(&env, "pqc", 24).status().IsCorruption());
}

}  // namespace
}  // namespace qvt

// Product-quantization training/encoding: shape validation, determinism
// across build thread counts and SIMD backends, and encoding quality
// basics (codes index real entries; reconstruction beats a random code).

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "cluster/pq.h"
#include "descriptor/generator.h"
#include "geometry/kernels.h"
#include "kernel_backends.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace qvt {
namespace {

struct BuildThreadsGuard {
  explicit BuildThreadsGuard(size_t n) { SetBuildThreads(n); }
  ~BuildThreadsGuard() { SetBuildThreads(0); }
};

Collection MakeCollection(size_t images, uint64_t seed) {
  GeneratorConfig config;
  config.num_images = images;
  config.seed = seed;
  return GenerateCollection(config);
}

TEST(PqTest, RejectsBadShapes) {
  const Collection collection = MakeCollection(4, 3);
  PqConfig config;
  config.m = 5;  // 24 % 5 != 0
  EXPECT_TRUE(TrainPq(collection, config).status().IsInvalidArgument());
  config.m = 48;  // larger than dim
  EXPECT_TRUE(TrainPq(collection, config).status().IsInvalidArgument());
  config.m = 8;
  config.ksub = 0;
  EXPECT_TRUE(TrainPq(collection, config).status().IsInvalidArgument());
  config.ksub = 257;
  EXPECT_TRUE(TrainPq(collection, config).status().IsInvalidArgument());
  config.ksub = 16;
  EXPECT_TRUE(TrainPq(Collection(24), config).status().IsInvalidArgument());

  auto codebook_or = TrainPq(collection, config);
  ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
  PqCodebook codebook = std::move(*codebook_or);
  EXPECT_TRUE(
      PqEncode(Collection(12), codebook).status().IsInvalidArgument());
}

TEST(PqTest, TrainsAndEncodesAllSupportedShapes) {
  const Collection collection = MakeCollection(6, 5);
  for (const size_t m : {size_t{1}, size_t{3}, size_t{8}, size_t{12}}) {
    PqConfig config;
    config.m = m;
    config.ksub = 16;
    config.max_iterations = 8;
    auto codebook_or = TrainPq(collection, config);
    ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
    PqCodebook codebook = std::move(*codebook_or);
    EXPECT_EQ(codebook.dim, collection.dim());
    EXPECT_EQ(codebook.centroids.size(), m * 16 * (24 / m));
    auto codes_or = PqEncode(collection, codebook);
    ASSERT_TRUE(codes_or.ok()) << codes_or.status().message();
    std::vector<uint8_t> codes = std::move(*codes_or);
    ASSERT_EQ(codes.size(), collection.size() * m);
    for (const uint8_t c : codes) EXPECT_LT(c, 16);
  }
}

TEST(PqTest, ShortCollectionPadsCodebookWithoutSelectingDuplicates) {
  // Fewer rows than ksub: tail entries duplicate entry 0 and must never be
  // selected (strict <, lowest index on ties).
  Collection collection(24);
  Rng rng(11);
  for (uint32_t i = 0; i < 5; ++i) {
    std::vector<float> v(24);
    for (auto& x : v) x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    collection.Append(i, v);
  }
  PqConfig config;
  config.m = 4;
  config.ksub = 16;
  auto codebook_or = TrainPq(collection, config);
  ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
  PqCodebook codebook = std::move(*codebook_or);
  auto codes_or = PqEncode(collection, codebook);
  ASSERT_TRUE(codes_or.ok()) << codes_or.status().message();
  std::vector<uint8_t> codes = std::move(*codes_or);
  for (const uint8_t c : codes) EXPECT_LT(c, 5);
}

TEST(PqTest, ByteIdenticalAcrossThreadCounts) {
  const Collection collection = MakeCollection(12, 7);
  PqConfig config;
  config.m = 8;
  config.ksub = 32;
  config.max_iterations = 10;

  std::vector<float> baseline_centroids;
  std::vector<uint8_t> baseline_codes;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    BuildThreadsGuard guard(threads);
    auto codebook_or = TrainPq(collection, config);
    ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
    PqCodebook codebook = std::move(*codebook_or);
    auto codes_or = PqEncode(collection, codebook);
    ASSERT_TRUE(codes_or.ok()) << codes_or.status().message();
    std::vector<uint8_t> codes = std::move(*codes_or);
    if (threads == 1) {
      baseline_centroids = codebook.centroids;
      baseline_codes = codes;
      continue;
    }
    ASSERT_EQ(codebook.centroids.size(), baseline_centroids.size());
    EXPECT_EQ(0, std::memcmp(codebook.centroids.data(),
                             baseline_centroids.data(),
                             baseline_centroids.size() * sizeof(float)))
        << "threads=" << threads;
    EXPECT_EQ(codes, baseline_codes) << "threads=" << threads;
  }
}

TEST(PqTest, ByteIdenticalAcrossSimdBackends) {
  const Collection collection = MakeCollection(10, 13);
  PqConfig config;
  config.m = 6;
  config.ksub = 24;
  config.max_iterations = 10;

  std::vector<float> baseline_centroids;
  std::vector<uint8_t> baseline_codes;
  bool first = true;
  for (kernels::Backend b : kernels::SupportedBackends()) {
    BackendGuard guard(b);
    auto codebook_or = TrainPq(collection, config);
    ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
    PqCodebook codebook = std::move(*codebook_or);
    auto codes_or = PqEncode(collection, codebook);
    ASSERT_TRUE(codes_or.ok()) << codes_or.status().message();
    std::vector<uint8_t> codes = std::move(*codes_or);
    if (first) {
      baseline_centroids = codebook.centroids;
      baseline_codes = codes;
      first = false;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(codebook.centroids.data(),
                             baseline_centroids.data(),
                             baseline_centroids.size() * sizeof(float)))
        << "backend=" << kernels::BackendName(b);
    EXPECT_EQ(codes, baseline_codes)
        << "backend=" << kernels::BackendName(b);
  }
}

TEST(PqTest, ReconstructionBeatsRandomCodes) {
  const Collection collection = MakeCollection(8, 17);
  PqConfig config;
  config.m = 8;
  config.ksub = 64;
  auto codebook_or = TrainPq(collection, config);
  ASSERT_TRUE(codebook_or.ok()) << codebook_or.status().message();
  PqCodebook codebook = std::move(*codebook_or);
  auto codes_or = PqEncode(collection, codebook);
  ASSERT_TRUE(codes_or.ok()) << codes_or.status().message();
  std::vector<uint8_t> codes = std::move(*codes_or);
  const size_t sub_dim = codebook.sub_dim();
  Rng rng(19);
  double trained_err = 0.0, random_err = 0.0;
  for (size_t i = 0; i < collection.size(); ++i) {
    const auto v = collection.Vector(i);
    for (size_t s = 0; s < codebook.m; ++s) {
      const float* entry =
          codebook.centroids.data() +
          (s * codebook.ksub + codes[i * codebook.m + s]) * sub_dim;
      const float* rand_entry =
          codebook.centroids.data() +
          (s * codebook.ksub + rng.Uniform(codebook.ksub)) * sub_dim;
      for (size_t d = 0; d < sub_dim; ++d) {
        const double t = v[s * sub_dim + d] - entry[d];
        const double r = v[s * sub_dim + d] - rand_entry[d];
        trained_err += t * t;
        random_err += r * r;
      }
    }
  }
  EXPECT_LT(trained_err, random_err * 0.5);
}

}  // namespace
}  // namespace qvt

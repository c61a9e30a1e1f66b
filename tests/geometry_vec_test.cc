#include "geometry/vec.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"

namespace qvt {
namespace {

std::vector<float> RandomVector(Rng* rng, size_t dim, double scale = 10.0) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble(-scale, scale));
  return v;
}

TEST(VecTest, DistanceOfIdenticalVectorsIsZero) {
  std::vector<float> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(vec::SquaredDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(vec::Distance(a, a), 0.0);
}

TEST(VecTest, KnownDistance) {
  std::vector<float> a = {0, 0};
  std::vector<float> b = {3, 4};
  EXPECT_DOUBLE_EQ(vec::SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(vec::Distance(a, b), 5.0);
}

TEST(VecTest, NormMatchesDistanceFromOrigin) {
  std::vector<float> v = {1, -2, 2};
  EXPECT_DOUBLE_EQ(vec::Norm(v), 3.0);
}

TEST(VecTest, MeanOfEmptyIsZero) {
  const auto mean = vec::Mean({}, 3);
  EXPECT_EQ(mean, (std::vector<float>{0, 0, 0}));
}

TEST(VecTest, MeanOfVectors) {
  std::vector<float> a = {0, 0};
  std::vector<float> b = {2, 4};
  std::vector<std::span<const float>> vs = {a, b};
  const auto mean = vec::Mean(vs, 2);
  EXPECT_FLOAT_EQ(mean[0], 1.0f);
  EXPECT_FLOAT_EQ(mean[1], 2.0f);
}

class VecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VecPropertyTest, SymmetryAndTriangleInequality) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = RandomVector(&rng, 24);
    const auto b = RandomVector(&rng, 24);
    const auto c = RandomVector(&rng, 24);
    EXPECT_DOUBLE_EQ(vec::Distance(a, b), vec::Distance(b, a));
    EXPECT_LE(vec::Distance(a, c),
              vec::Distance(a, b) + vec::Distance(b, c) + 1e-9);
    EXPECT_GE(vec::Distance(a, b), 0.0);
  }
}

TEST_P(VecPropertyTest, SquaredDistanceConsistentWithDistance) {
  Rng rng(GetParam() ^ 0x1234);
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = RandomVector(&rng, 24);
    const auto b = RandomVector(&rng, 24);
    EXPECT_NEAR(std::sqrt(vec::SquaredDistance(a, b)), vec::Distance(a, b),
                1e-9);
  }
}

TEST_P(VecPropertyTest, MeanMinimizesSumOfSquaredDistances) {
  Rng rng(GetParam() ^ 0x777);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 20; ++i) points.push_back(RandomVector(&rng, 8));
  std::vector<std::span<const float>> spans(points.begin(), points.end());
  const auto mean = vec::Mean(spans, 8);

  auto cost = [&](std::span<const float> center) {
    double sum = 0;
    for (const auto& p : points) sum += vec::SquaredDistance(center, p);
    return sum;
  };
  const double best = cost(mean);
  for (int trial = 0; trial < 20; ++trial) {
    auto other = mean;
    for (auto& x : other) {
      x += static_cast<float>(rng.UniformDouble(-1, 1));
    }
    EXPECT_GE(cost(other), best - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VecPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace qvt

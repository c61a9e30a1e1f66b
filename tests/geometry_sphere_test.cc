#include "geometry/sphere.h"

#include <gtest/gtest.h>

#include "geometry/vec.h"
#include "util/random.h"

namespace qvt {
namespace {

std::vector<float> RandomPoint(Rng* rng, size_t dim, double scale = 10.0) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->UniformDouble(-scale, scale));
  return v;
}

class SpherePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpherePropertyTest, CentroidBoundingSphereCoversAllPoints) {
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 40; ++i) points.push_back(RandomPoint(&rng, 6));
  std::vector<std::span<const float>> spans(points.begin(), points.end());
  const Sphere s = CentroidBoundingSphere(spans, 6);
  double max_dist = 0;
  for (const auto& p : points) {
    EXPECT_LE(vec::Distance(s.center, p), s.radius + 1e-4);
    max_dist = std::max(max_dist, vec::Distance(s.center, p));
  }
  // The radius is minimal for that center: equal to the farthest point.
  EXPECT_NEAR(s.radius, max_dist, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpherePropertyTest,
                         ::testing::Values(11, 22, 33));

TEST(BoundingSphereTest, EmptyPointsGiveZeroSphere) {
  const Sphere s = CentroidBoundingSphere({}, 4);
  EXPECT_EQ(s.dim(), 4u);
  EXPECT_DOUBLE_EQ(s.radius, 0.0);
}

TEST(BoundingSphereTest, SinglePointSphere) {
  std::vector<float> p = {3, 4};
  std::vector<std::span<const float>> spans = {p};
  const Sphere s = CentroidBoundingSphere(spans, 2);
  EXPECT_DOUBLE_EQ(s.radius, 0.0);
  EXPECT_FLOAT_EQ(s.center[0], 3.0f);
}

}  // namespace
}  // namespace qvt

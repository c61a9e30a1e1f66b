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

TEST(SphereTest, DistancesToPoint) {
  Sphere s({0, 0}, 2.0);
  std::vector<float> inside = {1, 0};
  std::vector<float> outside = {5, 0};
  EXPECT_DOUBLE_EQ(s.MinDistanceTo(inside), 0.0);
  EXPECT_DOUBLE_EQ(s.MinDistanceTo(outside), 3.0);
  EXPECT_DOUBLE_EQ(s.MaxDistanceTo(outside), 7.0);
  EXPECT_DOUBLE_EQ(s.CenterDistanceTo(outside), 5.0);
  EXPECT_TRUE(s.Contains(inside));
  EXPECT_FALSE(s.Contains(outside));
}

TEST(SphereTest, Intersects) {
  Sphere a({0, 0}, 1.0);
  Sphere b({3, 0}, 1.0);
  Sphere c({1.5, 0}, 1.0);
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_TRUE(a.Intersects(c));
  EXPECT_TRUE(b.Intersects(c));
}

TEST(MergeSpheresTest, ContainmentReturnsContainer) {
  Sphere big({0, 0}, 10.0);
  Sphere small({1, 0}, 1.0);
  const Sphere merged = MergeSpheres(big, small);
  EXPECT_DOUBLE_EQ(merged.radius, 10.0);
  EXPECT_FLOAT_EQ(merged.center[0], 0.0f);
}

TEST(MergeSpheresTest, DisjointSpheresSpanBoth) {
  Sphere a({0, 0}, 1.0);
  Sphere b({10, 0}, 1.0);
  const Sphere merged = MergeSpheres(a, b);
  EXPECT_DOUBLE_EQ(merged.radius, 6.0);
  EXPECT_FLOAT_EQ(merged.center[0], 5.0f);
}

class SpherePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpherePropertyTest, MergedSphereCoversBoth) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    Sphere a(RandomPoint(&rng, 5), rng.UniformDouble(0, 5));
    Sphere b(RandomPoint(&rng, 5), rng.UniformDouble(0, 5));
    const Sphere merged = MergeSpheres(a, b);
    // Check via support points: center +- radius along the center line and
    // along random directions.
    for (int trial = 0; trial < 10; ++trial) {
      const auto dir = RandomPoint(&rng, 5, 1.0);
      const double norm = vec::Norm(dir);
      if (norm < 1e-9) continue;
      for (const Sphere* s : {&a, &b}) {
        std::vector<float> support(5);
        for (size_t d = 0; d < 5; ++d) {
          support[d] = static_cast<float>(s->center[d] +
                                          dir[d] / norm * s->radius);
        }
        EXPECT_TRUE(merged.Contains(support, 1e-4));
      }
    }
  }
}

TEST_P(SpherePropertyTest, CentroidBoundingSphereCoversAllPoints) {
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 40; ++i) points.push_back(RandomPoint(&rng, 6));
  std::vector<std::span<const float>> spans(points.begin(), points.end());
  const Sphere s = CentroidBoundingSphere(spans, 6);
  double max_dist = 0;
  for (const auto& p : points) {
    EXPECT_TRUE(s.Contains(p, 1e-4));
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

#include "geometry/sphere.h"

#include <algorithm>
#include <cmath>

#include "geometry/vec.h"
#include "util/logging.h"

namespace qvt {

double Sphere::MinDistanceTo(std::span<const float> point) const {
  return std::max(0.0, vec::Distance(center, point) - radius);
}

double Sphere::CenterDistanceTo(std::span<const float> point) const {
  return vec::Distance(center, point);
}

double Sphere::MaxDistanceTo(std::span<const float> point) const {
  return vec::Distance(center, point) + radius;
}

bool Sphere::Contains(std::span<const float> point, double eps) const {
  return vec::Distance(center, point) <= radius + eps;
}

bool Sphere::Intersects(const Sphere& other, double eps) const {
  return vec::Distance(center, other.center) <= radius + other.radius + eps;
}

Sphere MergeSpheres(const Sphere& a, const Sphere& b) {
  QVT_CHECK(a.dim() == b.dim());
  const double d = vec::Distance(a.center, b.center);
  // Containment cases.
  if (d + b.radius <= a.radius) return a;
  if (d + a.radius <= b.radius) return b;
  const double new_radius = (d + a.radius + b.radius) / 2.0;
  // New center lies on the segment a.center -> b.center at distance
  // (new_radius - a.radius) from a.center.
  const double t = d > 1e-12 ? (new_radius - a.radius) / d : 0.0;
  std::vector<float> center(a.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    center[i] = static_cast<float>(a.center[i] +
                                   t * (b.center[i] - a.center[i]));
  }
  return Sphere(std::move(center), new_radius);
}

Sphere CentroidBoundingSphere(std::span<const std::span<const float>> points,
                              size_t dim) {
  Sphere sphere(vec::Mean(points, dim), 0.0);
  double max_sq = 0.0;
  for (const auto& p : points) {
    max_sq = std::max(max_sq, vec::SquaredDistance(sphere.center, p));
  }
  sphere.radius = std::sqrt(max_sq);
  return sphere;
}

}  // namespace qvt

#include "geometry/sphere.h"

#include <algorithm>
#include <cmath>

#include "geometry/vec.h"

namespace qvt {

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

#ifndef QVT_GEOMETRY_SPHERE_H_
#define QVT_GEOMETRY_SPHERE_H_

#include <span>
#include <vector>

namespace qvt {

/// A hypersphere in d-dimensional space: the geometric summary used for
/// chunks (§4.2: each index entry stores a centroid and a radius) and for
/// BAG clusters.
struct Sphere {
  std::vector<float> center;
  double radius = 0.0;

  Sphere() = default;
  Sphere(std::vector<float> c, double r) : center(std::move(c)), radius(r) {}

  size_t dim() const { return center.size(); }
};

/// Sphere centered at the centroid of `points` with the minimal radius that
/// covers them all (the paper's "minimum bounding radius", §3). Note the
/// center is the centroid, not the minimax center.
Sphere CentroidBoundingSphere(std::span<const std::span<const float>> points,
                              size_t dim);

}  // namespace qvt

#endif  // QVT_GEOMETRY_SPHERE_H_

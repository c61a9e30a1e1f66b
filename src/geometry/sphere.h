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

  /// Distance from `point` to the sphere's surface: max(0, |p-c| - r).
  /// This is the lower bound on the distance from the query to any point
  /// inside the sphere — the quantity the search's exact stop rule uses.
  double MinDistanceTo(std::span<const float> point) const;

  /// Distance from `point` to the centroid (the chunk-ranking key of §4.3).
  double CenterDistanceTo(std::span<const float> point) const;

  /// Upper bound on the distance from `point` to any point in the sphere:
  /// |p-c| + r.
  double MaxDistanceTo(std::span<const float> point) const;

  /// True if the point lies inside or on the sphere (with tolerance eps).
  bool Contains(std::span<const float> point, double eps = 1e-6) const;

  /// True if the two spheres intersect or touch.
  bool Intersects(const Sphere& other, double eps = 1e-9) const;
};

/// Smallest sphere enclosing both input spheres. If one contains the other,
/// returns (a copy of) the container; otherwise the classic two-sphere
/// bounding construction on the center line.
Sphere MergeSpheres(const Sphere& a, const Sphere& b);

/// Sphere centered at the centroid of `points` with the minimal radius that
/// covers them all (the paper's "minimum bounding radius", §3). Note the
/// center is the centroid, not the minimax center.
Sphere CentroidBoundingSphere(std::span<const std::span<const float>> points,
                              size_t dim);

}  // namespace qvt

#endif  // QVT_GEOMETRY_SPHERE_H_

#ifndef QVT_GEOMETRY_VEC_H_
#define QVT_GEOMETRY_VEC_H_

#include <cstddef>
#include <span>
#include <vector>

namespace qvt {

/// Dense float-vector kernels shared by the whole library. All functions
/// require both operands to have the same length; this is checked in debug
/// builds.
///
/// Distances are Euclidean (L2), matching the paper's similarity measure
/// (§4.1: "similarity between images is implemented as a nearest-neighbors
/// search in a Euclidean space").
namespace vec {

/// Squared L2 distance. The hot kernel of the search algorithm; distances are
/// compared in squared space whenever possible to avoid sqrt.
double SquaredDistance(std::span<const float> a, std::span<const float> b);

/// L2 distance.
double Distance(std::span<const float> a, std::span<const float> b);

/// L2 norm.
double Norm(std::span<const float> v);

/// Arithmetic mean of `vectors` (all of length `dim`); empty input returns a
/// zero vector.
std::vector<float> Mean(std::span<const std::span<const float>> vectors,
                        size_t dim);

}  // namespace vec
}  // namespace qvt

#endif  // QVT_GEOMETRY_VEC_H_

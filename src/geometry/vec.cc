#include "geometry/vec.h"

#include <cmath>

#include "util/logging.h"

namespace qvt {
namespace vec {

double SquaredDistance(std::span<const float> a, std::span<const float> b) {
  QVT_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double Distance(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(SquaredDistance(a, b));
}

double Norm(std::span<const float> v) {
  double sum = 0.0;
  for (float x : v) sum += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(sum);
}

std::vector<float> Mean(std::span<const std::span<const float>> vectors,
                        size_t dim) {
  std::vector<double> acc(dim, 0.0);
  for (const auto& v : vectors) {
    QVT_DCHECK(v.size() == dim);
    for (size_t i = 0; i < dim; ++i) acc[i] += v[i];
  }
  std::vector<float> mean(dim, 0.0f);
  if (!vectors.empty()) {
    const double inv = 1.0 / static_cast<double>(vectors.size());
    for (size_t i = 0; i < dim; ++i) {
      mean[i] = static_cast<float>(acc[i] * inv);
    }
  }
  return mean;
}

}  // namespace vec
}  // namespace qvt

// Test helpers for running a check on every SIMD backend this CPU supports
// and holding it to the scalar reference.

#ifndef QVT_TESTS_KERNEL_BACKENDS_H_
#define QVT_TESTS_KERNEL_BACKENDS_H_

#include <vector>

#include "geometry/kernels.h"

namespace qvt {

/// Every backend this CPU runs, scalar first: it is the reference the
/// others are held to.
inline std::vector<kernels::Backend> SupportedBackends() {
  std::vector<kernels::Backend> backends;
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2, kernels::Backend::kNeon}) {
    if (kernels::BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores auto-dispatch when a test scope ends. Constructed with a
/// backend, it pins that backend until then.
struct BackendGuard {
  BackendGuard() = default;
  explicit BackendGuard(kernels::Backend backend) {
    kernels::SetBackendForTesting(backend);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
  ~BackendGuard() { kernels::ResetBackendForTesting(); }
};

}  // namespace qvt

#endif  // QVT_TESTS_KERNEL_BACKENDS_H_

// Test helpers for running a check on every SIMD backend this CPU supports
// and holding it to the scalar reference.

#ifndef QVT_TESTS_KERNEL_BACKENDS_H_
#define QVT_TESTS_KERNEL_BACKENDS_H_

#include "geometry/kernels.h"

namespace qvt {

using kernels::SupportedBackends;

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

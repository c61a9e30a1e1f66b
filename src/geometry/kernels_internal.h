#ifndef QVT_GEOMETRY_KERNELS_INTERNAL_H_
#define QVT_GEOMETRY_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// Per-backend entry points behind the dispatch in kernels.cc. Every
// implementation obeys the determinism contract of kernels.h: one lane per
// row, terms accumulated in ascending-d order, no FMA contraction.

namespace qvt {
namespace kernels {
namespace internal {

/// Rows whose running sum strictly exceeds `threshold` may be written as
/// kAbandoned; threshold = +inf never abandons. Backends check at
/// kAbandonStride-dimension boundaries.
inline constexpr size_t kAbandonStride = 8;

/// ADC scans check at kAdcAbandonStride-subspace boundaries: one table
/// lookup covers sub_dim dimensions, so the stride is tighter than the
/// per-dimension kAbandonStride.
inline constexpr size_t kAdcAbandonStride = 4;

// --- Portable scalar reference (always available) -------------------------
void ContigScalar(const float* base, size_t count, size_t dim,
                  const double* query, double threshold, double* out);
void GatherScalar(const float* base, size_t dim, const uint32_t* positions,
                  size_t count, const double* query, double* out);
void AdcScalar(const uint8_t* codes, size_t count, size_t m, size_t ksub,
               const double* table, double threshold, double* out);

// --- SSE2 (x86-64 baseline), defined in kernels.cc ------------------------
#if defined(__x86_64__) || defined(_M_X64)
void ContigSse2(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out);
void GatherSse2(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out);
void AdcSse2(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out);

// --- AVX2 (runtime-detected), defined in kernels_avx2.cc ------------------
void ContigAvx2(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out);
void GatherAvx2(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out);
void AdcAvx2(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out);
#endif  // x86-64

// --- NEON (aarch64 baseline), defined in kernels.cc -----------------------
#if defined(__aarch64__)
void ContigNeon(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out);
void GatherNeon(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out);
void AdcNeon(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out);
#endif  // aarch64

}  // namespace internal
}  // namespace kernels
}  // namespace qvt

#endif  // QVT_GEOMETRY_KERNELS_INTERNAL_H_

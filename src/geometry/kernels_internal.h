#ifndef QVT_GEOMETRY_KERNELS_INTERNAL_H_
#define QVT_GEOMETRY_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// Per-backend entry points behind the dispatch in kernels.cc. Every
// implementation obeys the determinism contract of kernels.h: one lane per
// row, terms accumulated in ascending-d order, no FMA contraction. The
// exceptions are Filter* and Bounds*, the float bound filter and its fp32
// bound pass, which report no exact value and may reorder and contract
// (kernels.h "Float bound filter").

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
void SqrtScalar(double* values, size_t count);
size_t FirstNotAboveScalar(const double* values, size_t count,
                           double threshold);
size_t FilterScalar(const float* base, size_t count, size_t dim,
                    const float* query, float limit, uint32_t* survivors);
bool BoundsScalar(const float* base, size_t count, size_t dim,
                  const float* query, float* out);
void RectGapScalar(const float* lo, const float* hi, size_t dim,
                   const double* const* queries, size_t num_queries,
                   double* out);

// --- SSE2 (x86-64 baseline), defined in kernels.cc ------------------------
#if defined(__x86_64__) || defined(_M_X64)
void ContigSse2(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out);
void GatherSse2(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out);
void AdcSse2(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out);
void SqrtSse2(double* values, size_t count);
size_t FirstNotAboveSse2(const double* values, size_t count,
                         double threshold);
size_t FilterSse2(const float* base, size_t count, size_t dim,
                  const float* query, float limit, uint32_t* survivors);
bool BoundsSse2(const float* base, size_t count, size_t dim,
                const float* query, float* out);
void RectGapSse2(const float* lo, const float* hi, size_t dim,
                 const double* const* queries, size_t num_queries,
                 double* out);

// --- AVX2 (runtime-detected), defined in kernels_avx2.cc ------------------
void ContigAvx2(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out);
void GatherAvx2(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out);
void AdcAvx2(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out);
void SqrtAvx2(double* values, size_t count);
size_t FirstNotAboveAvx2(const double* values, size_t count,
                         double threshold);
size_t FilterAvx2(const float* base, size_t count, size_t dim,
                  const float* query, float limit, uint32_t* survivors);
bool BoundsAvx2(const float* base, size_t count, size_t dim,
                const float* query, float* out);
void RectGapAvx2(const float* lo, const float* hi, size_t dim,
                 const double* const* queries, size_t num_queries,
                 double* out);
/// The fused multi-query kernel at dim 24: one widen-and-transpose per
/// 4-row group, queries swept four at a time in lockstep.
void MultiContig24Avx2(const float* base, size_t count,
                       const double* const* queries, const double* thresholds,
                       size_t num_queries, double* const* outs);
#endif  // x86-64

}  // namespace internal
}  // namespace kernels
}  // namespace qvt

#endif  // QVT_GEOMETRY_KERNELS_INTERNAL_H_

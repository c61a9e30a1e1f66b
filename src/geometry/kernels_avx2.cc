// AVX2 batch squared-distance kernels. Compiled with per-function target
// attributes (not -mavx2 for the whole TU) so no AVX2 instruction can leak
// into code that runs before the runtime CPU check in kernels.cc.
//
// Layout: four rows per block, one ymm lane per row. Each lane accumulates
// (row[d] - q[d])^2 in ascending-d order — the same fixed reduction the
// scalar reference performs — so results are bit-identical to ContigScalar.
// Dimension values are brought lane-wise via a 4x4 double transpose of four
// row segments (fast path) or a scalar gather (tails / scattered rows). The
// fused multi-query kernel transposes a 4-row group once and sweeps it for
// four queries at a time, each lane still running the same reduction.

#include "geometry/kernels_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#define QVT_TARGET_AVX2 __attribute__((target("avx2")))
// The float bound filter alone may contract (kernels.h "Float bound
// filter"); BackendSupported(kAvx2) also checks the CPU's fma bit.
#define QVT_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))

namespace qvt {
namespace kernels {
namespace internal {

namespace {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kAbandonedValue = kInf;

/// Four floats of one row widened to doubles.
QVT_TARGET_AVX2 inline __m256d CvtRow4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// Transposes four row segments {r[d..d+3]} into four dimension vectors
/// {dim d across rows, ..., dim d+3 across rows}.
QVT_TARGET_AVX2 inline void Transpose4(__m256d r0, __m256d r1, __m256d r2,
                                       __m256d r3, __m256d* d0, __m256d* d1,
                                       __m256d* d2, __m256d* d3) {
  const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);  // a0 b0 a2 b2
  const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);  // a1 b1 a3 b3
  const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);  // c0 d0 c2 d2
  const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);  // c1 d1 c3 d3
  *d0 = _mm256_permute2f128_pd(lo01, lo23, 0x20);
  *d1 = _mm256_permute2f128_pd(hi01, hi23, 0x20);
  *d2 = _mm256_permute2f128_pd(lo01, lo23, 0x31);
  *d3 = _mm256_permute2f128_pd(hi01, hi23, 0x31);
}

/// One reduction step: acc += (v - q)^2 per lane. Explicit mul+add — an FMA
/// here would round differently from the scalar reference.
QVT_TARGET_AVX2 inline __m256d Step(__m256d acc, __m256d v, double q) {
  const __m256d x = _mm256_sub_pd(v, _mm256_set1_pd(q));
  return _mm256_add_pd(acc, _mm256_mul_pd(x, x));
}

/// Advances four rows through dims [d, d+4); requires d + 4 <= dim.
QVT_TARGET_AVX2 inline __m256d Group4(__m256d acc, const float* r0,
                                      const float* r1, const float* r2,
                                      const float* r3, size_t d,
                                      const double* query) {
  __m256d d0, d1, d2, d3;
  Transpose4(CvtRow4(r0 + d), CvtRow4(r1 + d), CvtRow4(r2 + d),
             CvtRow4(r3 + d), &d0, &d1, &d2, &d3);
  acc = Step(acc, d0, query[d]);
  acc = Step(acc, d1, query[d + 1]);
  acc = Step(acc, d2, query[d + 2]);
  acc = Step(acc, d3, query[d + 3]);
  return acc;
}

/// One dimension via scalar gather (general-dim tails).
QVT_TARGET_AVX2 inline __m256d GatherDim(__m256d acc, const float* r0,
                                         const float* r1, const float* r2,
                                         const float* r3, size_t d,
                                         const double* query) {
  const __m256d v = _mm256_set_pd(
      static_cast<double>(r3[d]), static_cast<double>(r2[d]),
      static_cast<double>(r1[d]), static_cast<double>(r0[d]));
  return Step(acc, v, query[d]);
}

QVT_TARGET_AVX2 inline bool AllOver(__m256d acc, __m256d thr) {
  return _mm256_movemask_pd(_mm256_cmp_pd(acc, thr, _CMP_GT_OQ)) == 0xF;
}

/// Full block for the descriptor dimensionality of the paper, unrolled.
/// Abandon checks fall on the kAbandonStride grid (after dims 8 and 16).
QVT_TARGET_AVX2 inline bool Block24(const float* r0, const float* r1,
                                    const float* r2, const float* r3,
                                    const double* query, double threshold,
                                    bool abandon, double* out4) {
  const __m256d thr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  acc = Group4(acc, r0, r1, r2, r3, 0, query);
  acc = Group4(acc, r0, r1, r2, r3, 4, query);
  if (abandon && AllOver(acc, thr)) return false;
  acc = Group4(acc, r0, r1, r2, r3, 8, query);
  acc = Group4(acc, r0, r1, r2, r3, 12, query);
  if (abandon && AllOver(acc, thr)) return false;
  acc = Group4(acc, r0, r1, r2, r3, 16, query);
  acc = Group4(acc, r0, r1, r2, r3, 20, query);
  _mm256_storeu_pd(out4, acc);
  return true;
}

/// Four rows' 24 dims widened and transposed: t[d] holds dim d of the four
/// rows, one lane per row (the values Block24 steps through).
QVT_TARGET_AVX2 inline void Transpose24(const float* r0, const float* r1,
                                        const float* r2, const float* r3,
                                        __m256d* t) {
  for (size_t d = 0; d < 24; d += 4) {
    Transpose4(CvtRow4(r0 + d), CvtRow4(r1 + d), CvtRow4(r2 + d),
               CvtRow4(r3 + d), &t[d], &t[d + 1], &t[d + 2], &t[d + 3]);
  }
}

/// Advances N queries' accumulators through dims [begin, begin + 8) of a
/// transposed group, each by Block24's own Step sequence.
template <size_t N>
QVT_TARGET_AVX2 inline void LockstepSteps(__m256d* acc, const __m256d* t,
                                          const double* const* queries,
                                          size_t begin) {
#pragma GCC unroll 8
  for (size_t d = begin; d < begin + kAbandonStride; ++d) {
#pragma GCC unroll 4
    for (size_t j = 0; j < N; ++j) acc[j] = Step(acc[j], t[d], queries[j][d]);
  }
}

/// Block24 for N queries in lockstep over one transposed group at row `i`.
/// Each query checks its own threshold after dims 8 and 16, as Block24
/// does; an abandoned query's lanes are still advanced while another query
/// of the group lives, but never stored. The group stops early only when
/// all N have abandoned.
template <size_t N>
QVT_TARGET_AVX2 inline void Lockstep24(const __m256d* t,
                                       const double* const* queries,
                                       const double* thresholds,
                                       double* const* outs, size_t i) {
  __m256d acc[N];
  for (size_t j = 0; j < N; ++j) acc[j] = _mm256_setzero_pd();
  unsigned live = (1u << N) - 1;  // bit j: query j not abandoned
  for (size_t d = 0; d < 24; d += kAbandonStride) {
    LockstepSteps<N>(acc, t, queries, d);
    if (d + kAbandonStride == 24) break;
    for (size_t j = 0; j < N; ++j) {
      if (AllOver(acc[j], _mm256_set1_pd(thresholds[j]))) live &= ~(1u << j);
    }
    if (live == 0) break;
  }
  for (size_t j = 0; j < N; ++j) {
    if ((live >> j & 1u) != 0) {
      _mm256_storeu_pd(outs[j] + i, acc[j]);
    } else {
      _mm256_storeu_pd(outs[j] + i, _mm256_set1_pd(kAbandonedValue));
    }
  }
}

/// General-dim block with abandon checks every kAbandonStride dims.
QVT_TARGET_AVX2 inline bool BlockN(const float* r0, const float* r1,
                                   const float* r2, const float* r3,
                                   size_t dim, const double* query,
                                   double threshold, bool abandon,
                                   double* out4) {
  const __m256d thr = _mm256_set1_pd(threshold);
  __m256d acc = _mm256_setzero_pd();
  size_t d = 0;
  while (d < dim) {
    const size_t stop = std::min(dim, d + kAbandonStride);
    for (; d + 4 <= stop; d += 4) {
      acc = Group4(acc, r0, r1, r2, r3, d, query);
    }
    for (; d < stop; ++d) {
      acc = GatherDim(acc, r0, r1, r2, r3, d, query);
    }
    if (abandon && d < dim && AllOver(acc, thr)) return false;
  }
  _mm256_storeu_pd(out4, acc);
  return true;
}

/// Sums the eight lanes of each of acc[0..8): lane r of the result holds
/// row r's total (a horizontal-add tree, then the two 128-bit halves).
QVT_TARGET_AVX2 inline __m256 ReduceRows8(const __m256* acc) {
  const __m256 h01 = _mm256_hadd_ps(acc[0], acc[1]);
  const __m256 h23 = _mm256_hadd_ps(acc[2], acc[3]);
  const __m256 h45 = _mm256_hadd_ps(acc[4], acc[5]);
  const __m256 h67 = _mm256_hadd_ps(acc[6], acc[7]);
  const __m256 h0123 = _mm256_hadd_ps(h01, h23);
  const __m256 h4567 = _mm256_hadd_ps(h45, h67);
  return _mm256_add_ps(_mm256_permute2f128_ps(h0123, h4567, 0x20),
                       _mm256_permute2f128_ps(h0123, h4567, 0x31));
}

/// The query as the 8-row group bound reads it: the lanes past dim % 8 of
/// its last 8-dim block masked off.
struct FloatQuery8 {
  const float* query;
  __m256i rest_mask;
  __m256 rest;  ///< query[dim & ~7 ..), zero beyond
};

QVT_TARGET_AVX2_FMA inline FloatQuery8 MakeFloatQuery8(const float* query,
                                                       size_t dim) {
  const size_t d8 = dim & ~size_t{7};
  const __m256i rest_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(dim - d8)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  return {query, rest_mask,
          d8 != dim ? _mm256_maskload_ps(query + d8, rest_mask)
                    : _mm256_setzero_ps()};
}

/// The fp32 bounds of the eight rows at `group`, one per lane: each row's
/// dims run eight lanes wide (sub, then fma), a masked load covering the
/// last dim % 8, and one ReduceRows8 turns eight rows' lanes into one bound
/// per lane. kDim fixes the dimension at compile time (0: use `dim`).
template <size_t kDim>
QVT_TARGET_AVX2_FMA inline __m256 GroupBound8(const float* group, size_t dim,
                                              const FloatQuery8& q8) {
  if constexpr (kDim != 0) dim = kDim;
  const size_t d8 = dim & ~size_t{7};
  const bool rest = d8 != dim;
  const float* query = q8.query;
  // Dims outer, rows inner: eight independent accumulator chains, started
  // by the first eight dims (the masked rest when dim < 8).
  __m256 acc[8];
  const __m256 q0 = d8 != 0 ? _mm256_loadu_ps(query) : q8.rest;
#pragma GCC unroll 8
  for (size_t r = 0; r < 8; ++r) {
    const float* row = group + r * dim;
    const __m256 x = _mm256_sub_ps(
        d8 != 0 ? _mm256_loadu_ps(row) : _mm256_maskload_ps(row, q8.rest_mask),
        q0);
    acc[r] = _mm256_mul_ps(x, x);
  }
#pragma GCC unroll 4
  for (size_t d = 8; d < d8; d += 8) {
    const __m256 q = _mm256_loadu_ps(query + d);
#pragma GCC unroll 8
    for (size_t r = 0; r < 8; ++r) {
      const __m256 x = _mm256_sub_ps(_mm256_loadu_ps(group + r * dim + d), q);
      acc[r] = _mm256_fmadd_ps(x, x, acc[r]);
    }
  }
  if (d8 != 0 && rest) {
    for (size_t r = 0; r < 8; ++r) {
      const __m256 x = _mm256_sub_ps(
          _mm256_maskload_ps(group + r * dim + d8, q8.rest_mask), q8.rest);
      acc[r] = _mm256_fmadd_ps(x, x, acc[r]);
    }
  }
  return ReduceRows8(acc);
}

/// The filter over 8-row groups. Returns the index of the first row not in
/// a full group; survivors so far are in *kept.
template <size_t kDim>
QVT_TARGET_AVX2_FMA inline size_t FilterGroups8(const float* base,
                                                size_t count, size_t dim,
                                                const float* query,
                                                float limit,
                                                uint32_t* survivors,
                                                size_t* kept) {
  const FloatQuery8 q8 = MakeFloatQuery8(query, dim);
  const __m256 lim = _mm256_set1_ps(limit);
  const __m256 finite = _mm256_set1_ps(std::numeric_limits<float>::max());
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 bound = GroupBound8<kDim>(base + i * dim, dim, q8);
    const __m256 reject =
        _mm256_and_ps(_mm256_cmp_ps(bound, lim, _CMP_GT_OQ),
                      _mm256_cmp_ps(bound, finite, _CMP_LE_OQ));
    unsigned keep = ~static_cast<unsigned>(_mm256_movemask_ps(reject)) & 0xFFu;
    for (; keep != 0; keep &= keep - 1) {
      survivors[(*kept)++] =
          static_cast<uint32_t>(i + static_cast<size_t>(__builtin_ctz(keep)));
    }
  }
  return i;
}

/// The bound pass over 8-row groups. Returns the index of the first row
/// not in a full group; *finite is false when some bound so far is not.
template <size_t kDim>
QVT_TARGET_AVX2_FMA inline size_t BoundGroups8(const float* base,
                                               size_t count, size_t dim,
                                               const float* query, float* out,
                                               bool* finite) {
  const FloatQuery8 q8 = MakeFloatQuery8(query, dim);
  const __m256 max = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256 not_finite = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 bound = GroupBound8<kDim>(base + i * dim, dim, q8);
    _mm256_storeu_ps(out + i, bound);
    not_finite =
        _mm256_or_ps(not_finite, _mm256_cmp_ps(bound, max, _CMP_NLE_UQ));
  }
  *finite = _mm256_movemask_ps(not_finite) == 0;
  return i;
}

/// One rectangle-gap step for four queries (one per lane) at dimension d,
/// in RectGapScalar's order. maxpd(a, b) is (a > b) ? a : b and std::max(x,
/// y) is (x < y) ? y : x, so std::max(x, y) == max_pd(y, x) bit for bit,
/// signed zeros and NaN alike.
QVT_TARGET_AVX2 inline __m256d GapStep(__m256d acc, __m256d q, float lo,
                                       float hi) {
  const __m256d below = _mm256_sub_pd(_mm256_set1_pd(lo), q);
  const __m256d above = _mm256_sub_pd(q, _mm256_set1_pd(hi));
  const __m256d gap = _mm256_max_pd(_mm256_setzero_pd(),
                                    _mm256_max_pd(above, below));
  return _mm256_add_pd(acc, _mm256_mul_pd(gap, gap));
}

}  // namespace

QVT_TARGET_AVX2_FMA size_t FilterAvx2(const float* base, size_t count,
                                      size_t dim, const float* query,
                                      float limit, uint32_t* survivors) {
  size_t kept = 0;
  const size_t done =
      dim == 24
          ? FilterGroups8<24>(base, count, dim, query, limit, survivors, &kept)
          : FilterGroups8<0>(base, count, dim, query, limit, survivors, &kept);
  uint32_t* tail = survivors + kept;
  const size_t tail_kept = FilterScalar(base + done * dim, count - done, dim,
                                        query, limit, tail);
  for (size_t t = 0; t < tail_kept; ++t) tail[t] += static_cast<uint32_t>(done);
  return kept + tail_kept;
}

QVT_TARGET_AVX2_FMA bool BoundsAvx2(const float* base, size_t count,
                                    size_t dim, const float* query,
                                    float* out) {
  bool finite = true;
  const size_t done =
      dim == 24 ? BoundGroups8<24>(base, count, dim, query, out, &finite)
                : BoundGroups8<0>(base, count, dim, query, out, &finite);
  const bool tail_finite =
      BoundsScalar(base + done * dim, count - done, dim, query, out + done);
  return finite && tail_finite;
}

QVT_TARGET_AVX2 void RectGapAvx2(const float* lo, const float* hi, size_t dim,
                                 const double* const* queries,
                                 size_t num_queries, double* out) {
  size_t j = 0;
  for (; j + 4 <= num_queries; j += 4) {
    const double* q0 = queries[j];
    const double* q1 = queries[j + 1];
    const double* q2 = queries[j + 2];
    const double* q3 = queries[j + 3];
    __m256d acc = _mm256_setzero_pd();
    size_t d = 0;
    for (; d + 4 <= dim; d += 4) {
      __m256d t0, t1, t2, t3;
      Transpose4(_mm256_loadu_pd(q0 + d), _mm256_loadu_pd(q1 + d),
                 _mm256_loadu_pd(q2 + d), _mm256_loadu_pd(q3 + d), &t0, &t1,
                 &t2, &t3);
      acc = GapStep(acc, t0, lo[d], hi[d]);
      acc = GapStep(acc, t1, lo[d + 1], hi[d + 1]);
      acc = GapStep(acc, t2, lo[d + 2], hi[d + 2]);
      acc = GapStep(acc, t3, lo[d + 3], hi[d + 3]);
    }
    for (; d < dim; ++d) {
      acc = GapStep(acc, _mm256_set_pd(q3[d], q2[d], q1[d], q0[d]), lo[d],
                    hi[d]);
    }
    _mm256_storeu_pd(out + j, acc);
  }
  RectGapScalar(lo, hi, dim, queries + j, num_queries - j, out + j);
}

QVT_TARGET_AVX2 void ContigAvx2(const float* base, size_t count, size_t dim,
                                const double* query, double threshold,
                                double* out) {
  const bool abandon = threshold != kInf;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = base + i * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    const bool kept =
        dim == 24
            ? Block24(r0, r1, r2, r3, query, threshold, abandon, out + i)
            : BlockN(r0, r1, r2, r3, dim, query, threshold, abandon,
                     out + i);
    if (!kept) {
      out[i] = kAbandonedValue;
      out[i + 1] = kAbandonedValue;
      out[i + 2] = kAbandonedValue;
      out[i + 3] = kAbandonedValue;
    }
  }
  if (i < count) {
    ContigScalar(base + i * dim, count - i, dim, query, threshold, out + i);
  }
}

QVT_TARGET_AVX2 void MultiContig24Avx2(const float* base, size_t count,
                                       const double* const* queries,
                                       const double* thresholds,
                                       size_t num_queries,
                                       double* const* outs) {
  constexpr size_t kDim = 24;
  __m256d t[kDim];
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = base + i * kDim;
    Transpose24(r0, r0 + kDim, r0 + 2 * kDim, r0 + 3 * kDim, t);
    size_t q = 0;
    for (; q + 4 <= num_queries; q += 4) {
      Lockstep24<4>(t, queries + q, thresholds + q, outs + q, i);
    }
    switch (num_queries - q) {
      case 3:
        Lockstep24<3>(t, queries + q, thresholds + q, outs + q, i);
        break;
      case 2:
        Lockstep24<2>(t, queries + q, thresholds + q, outs + q, i);
        break;
      case 1:
        Lockstep24<1>(t, queries + q, thresholds + q, outs + q, i);
        break;
      default:
        break;
    }
  }
  if (i < count) {
    // The rows after the last full group, exactly as ContigAvx2 ends.
    for (size_t q = 0; q < num_queries; ++q) {
      ContigScalar(base + i * kDim, count - i, kDim, queries[q], thresholds[q],
                   outs[q] + i);
    }
  }
}

QVT_TARGET_AVX2 void SqrtAvx2(double* values, size_t count) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    _mm256_storeu_pd(values + i, _mm256_sqrt_pd(_mm256_loadu_pd(values + i)));
  }
  SqrtScalar(values + i, count - i);
}

QVT_TARGET_AVX2 size_t FirstNotAboveAvx2(const double* values, size_t count,
                                         double threshold) {
  const __m256d thr = _mm256_set1_pd(threshold);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const unsigned over = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(values + i), thr, _CMP_GT_OQ)));
    if (over != 0xFu) return i + static_cast<size_t>(__builtin_ctz(~over));
  }
  return i + FirstNotAboveScalar(values + i, count - i, threshold);
}

QVT_TARGET_AVX2 void GatherAvx2(const float* base, size_t dim,
                                const uint32_t* positions, size_t count,
                                const double* query, double* out) {
  // A short tail runs as one more 4-row group with its last row repeated
  // (lanes are independent, so each row's value is the same in any
  // group): the float bound filter's survivors are often fewer than four.
  for (size_t i = 0; i < count; i += 4) {
    const size_t n = std::min<size_t>(4, count - i);
    const float* r[4];
    for (size_t j = 0; j < 4; ++j) {
      r[j] = base + static_cast<size_t>(positions[i + std::min(j, n - 1)]) *
                        dim;
    }
    double group[4];
    double* dst = n == 4 ? out + i : group;
    if (dim == 24) {
      Block24(r[0], r[1], r[2], r[3], query, kInf, false, dst);
    } else {
      BlockN(r[0], r[1], r[2], r[3], dim, query, kInf, false, dst);
    }
    if (n < 4) std::copy(group, group + n, out + i);
  }
}

QVT_TARGET_AVX2 void AdcAvx2(const uint8_t* codes, size_t count, size_t m,
                             size_t ksub, const double* table,
                             double threshold, double* out) {
  const bool abandon = threshold != kInf;
  const __m256d thr = _mm256_set1_pd(threshold);
  size_t i = 0;
  // Eight rows per block as two 4-lane accumulators. The indices are
  // data-dependent, so table entries come in through scalar loads packed
  // lane-wise; each lane still adds its entries in ascending-s order,
  // bit-identical to AdcScalar.
  for (; i + 8 <= count; i += 8) {
    const uint8_t* c = codes + i * m;
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    size_t s = 0;
    bool abandoned = false;
    while (s < m) {
      const size_t stop = abandon ? std::min(m, s + kAdcAbandonStride) : m;
      const double* t = table + s * ksub;
      for (; s < stop; ++s, t += ksub) {
        acc_lo = _mm256_add_pd(
            acc_lo, _mm256_set_pd(t[c[3 * m + s]], t[c[2 * m + s]],
                                  t[c[m + s]], t[c[s]]));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_set_pd(t[c[7 * m + s]], t[c[6 * m + s]],
                                  t[c[5 * m + s]], t[c[4 * m + s]]));
      }
      if (abandon && s < m && AllOver(acc_lo, thr) && AllOver(acc_hi, thr)) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) {
      for (size_t j = 0; j < 8; ++j) out[i + j] = kAbandonedValue;
    } else {
      _mm256_storeu_pd(out + i, acc_lo);
      _mm256_storeu_pd(out + i + 4, acc_hi);
    }
  }
  if (i < count) {
    AdcScalar(codes + i * m, count - i, m, ksub, table, threshold, out + i);
  }
}

}  // namespace internal
}  // namespace kernels
}  // namespace qvt

#endif  // x86-64

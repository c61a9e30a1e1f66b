#include "geometry/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "geometry/kernels_internal.h"
#include "util/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>  // SSE2
#endif

namespace qvt {
namespace kernels {

namespace internal {

namespace {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The reference reduction: ascending-d sequential accumulation, identical
/// to vec::SquaredDistance.
inline double RowSquaredDistance(const float* row, const double* query,
                                 size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double x = static_cast<double>(row[d]) - query[d];
    acc += x * x;
  }
  return acc;
}

}  // namespace

void ContigScalar(const float* base, size_t count, size_t dim,
                  const double* query, double threshold, double* out) {
  if (threshold == kInf) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = RowSquaredDistance(base + i * dim, query, dim);
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const float* row = base + i * dim;
    double acc = 0.0;
    size_t d = 0;
    bool abandoned = false;
    while (d < dim) {
      const size_t stop = std::min(dim, d + kAbandonStride);
      for (; d < stop; ++d) {
        const double x = static_cast<double>(row[d]) - query[d];
        acc += x * x;
      }
      if (d < dim && acc > threshold) {
        abandoned = true;
        break;
      }
    }
    out[i] = abandoned ? kAbandoned : acc;
  }
}

void GatherScalar(const float* base, size_t dim, const uint32_t* positions,
                  size_t count, const double* query, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = RowSquaredDistance(
        base + static_cast<size_t>(positions[i]) * dim, query, dim);
  }
}

void AdcScalar(const uint8_t* codes, size_t count, size_t m, size_t ksub,
               const double* table, double threshold, double* out) {
  if (threshold == kInf) {
    size_t i = 0;
    // Four independent accumulator chains: a single row's lookup-add chain
    // is latency-bound, so the unroll is what lets the scalar scan stream
    // codes near load throughput. Each row remains its own ascending-s
    // reduction — bit-identical to the one-row loop below.
    for (; i + 4 <= count; i += 4) {
      const uint8_t* c0 = codes + i * m;
      const uint8_t* c1 = c0 + m;
      const uint8_t* c2 = c1 + m;
      const uint8_t* c3 = c2 + m;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      const double* t = table;
      for (size_t s = 0; s < m; ++s, t += ksub) {
        a0 += t[c0[s]];
        a1 += t[c1[s]];
        a2 += t[c2[s]];
        a3 += t[c3[s]];
      }
      out[i] = a0;
      out[i + 1] = a1;
      out[i + 2] = a2;
      out[i + 3] = a3;
    }
    for (; i < count; ++i) {
      const uint8_t* c = codes + i * m;
      double acc = 0.0;
      const double* t = table;
      for (size_t s = 0; s < m; ++s, t += ksub) acc += t[c[s]];
      out[i] = acc;
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* c = codes + i * m;
    double acc = 0.0;
    size_t s = 0;
    bool abandoned = false;
    while (s < m) {
      const size_t stop = std::min(m, s + kAdcAbandonStride);
      for (; s < stop; ++s) acc += table[s * ksub + c[s]];
      if (s < m && acc > threshold) {
        abandoned = true;
        break;
      }
    }
    out[i] = abandoned ? kAbandoned : acc;
  }
}

void SqrtScalar(double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) values[i] = std::sqrt(values[i]);
}

size_t FirstNotAboveScalar(const double* values, size_t count,
                           double threshold) {
  for (size_t i = 0; i < count; ++i) {
    if (!(values[i] > threshold)) return i;
  }
  return count;
}

namespace {

/// The float bound filter's reject test: the bound exceeds the limit and
/// is finite, so an overflowed (+inf) or NaN bound never rejects.
inline bool FloatBoundRejects(float bound, float limit) {
  return bound > limit && bound <= std::numeric_limits<float>::max();
}

/// One row's fp32 bound sum_d (row[d] - query[d])^2 from dimension `from`
/// on, added to `acc`: four independent chains over consecutive dims, so
/// the adds do not wait on one another (any order is allowed here).
inline float FloatRowBound(const float* row, const float* query, size_t from,
                           size_t dim, float acc) {
  float chain[4] = {acc, 0.0f, 0.0f, 0.0f};
  size_t d = from;
  for (; d + 4 <= dim; d += 4) {
    for (size_t k = 0; k < 4; ++k) {
      const float x = row[d + k] - query[d + k];
      chain[k] += x * x;
    }
  }
  for (; d < dim; ++d) {
    const float x = row[d] - query[d];
    chain[0] += x * x;
  }
  return (chain[0] + chain[1]) + (chain[2] + chain[3]);
}

/// FilterScalar over rows [begin, count), appending to survivors[kept..):
/// the row tail of every SIMD filter.
inline size_t FilterTail(const float* base, size_t begin, size_t count,
                         size_t dim, const float* query, float limit,
                         uint32_t* survivors, size_t kept) {
  for (size_t i = begin; i < count; ++i) {
    const float bound = FloatRowBound(base + i * dim, query, 0, dim, 0.0f);
    if (!FloatBoundRejects(bound, limit)) {
      survivors[kept++] = static_cast<uint32_t>(i);
    }
  }
  return kept;
}

}  // namespace

size_t FilterScalar(const float* base, size_t count, size_t dim,
                    const float* query, float limit, uint32_t* survivors) {
  return FilterTail(base, 0, count, dim, query, limit, survivors, 0);
}

bool BoundsScalar(const float* base, size_t count, size_t dim,
                  const float* query, float* out) {
  bool finite = true;
  for (size_t i = 0; i < count; ++i) {
    out[i] = FloatRowBound(base + i * dim, query, 0, dim, 0.0f);
    finite &= out[i] <= std::numeric_limits<float>::max();
  }
  return finite;
}

void RectGapScalar(const float* lo, const float* hi, size_t dim,
                   const double* const* queries, size_t num_queries,
                   double* out) {
  for (size_t j = 0; j < num_queries; ++j) {
    const double* q = queries[j];
    double sum = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double below = static_cast<double>(lo[d]) - q[d];
      const double above = q[d] - static_cast<double>(hi[d]);
      const double gap = std::max(std::max(below, above), 0.0);
      sum += gap * gap;
    }
    out[j] = sum;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

namespace {

/// One reduction step for a pair of rows: lanes {row0, row1} advance by the
/// dimension whose values sit in `v`, exactly like the scalar loop.
inline __m128d Sse2Step(__m128d acc, __m128d v, double q) {
  const __m128d x = _mm_sub_pd(v, _mm_set1_pd(q));
  return _mm_add_pd(acc, _mm_mul_pd(x, x));
}

/// {(double)r0[d], (double)r1[d], (double)r0[d+1], (double)r1[d+1]} as two
/// transposed vectors; requires d + 2 <= dim.
inline void Sse2LoadPair(const float* r0, const float* r1, size_t d,
                         __m128d* t0, __m128d* t1) {
  const __m128d v0 = _mm_cvtps_pd(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + d))));
  const __m128d v1 = _mm_cvtps_pd(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r1 + d))));
  *t0 = _mm_unpacklo_pd(v0, v1);
  *t1 = _mm_unpackhi_pd(v0, v1);
}

/// Squared distances of two contiguous rows, no abandon.
inline __m128d Sse2Pair(const float* r0, const float* r1, size_t dim,
                        const double* query) {
  __m128d acc = _mm_setzero_pd();
  size_t d = 0;
  for (; d + 2 <= dim; d += 2) {
    __m128d t0, t1;
    Sse2LoadPair(r0, r1, d, &t0, &t1);
    acc = Sse2Step(acc, t0, query[d]);
    acc = Sse2Step(acc, t1, query[d + 1]);
  }
  for (; d < dim; ++d) {
    const __m128d v = _mm_set_pd(static_cast<double>(r1[d]),
                                 static_cast<double>(r0[d]));
    acc = Sse2Step(acc, v, query[d]);
  }
  return acc;
}

}  // namespace

void ContigSse2(const float* base, size_t count, size_t dim,
                const double* query, double threshold, double* out) {
  const bool abandon = threshold != kInf;
  const __m128d thr = _mm_set1_pd(threshold);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const float* r0 = base + i * dim;
    const float* r1 = r0 + dim;
    if (!abandon) {
      _mm_storeu_pd(out + i, Sse2Pair(r0, r1, dim, query));
      continue;
    }
    __m128d acc = _mm_setzero_pd();
    size_t d = 0;
    bool abandoned = false;
    while (d < dim) {
      const size_t stop = std::min(dim, d + kAbandonStride);
      for (; d + 2 <= stop; d += 2) {
        __m128d t0, t1;
        Sse2LoadPair(r0, r1, d, &t0, &t1);
        acc = Sse2Step(acc, t0, query[d]);
        acc = Sse2Step(acc, t1, query[d + 1]);
      }
      for (; d < stop; ++d) {
        const __m128d v = _mm_set_pd(static_cast<double>(r1[d]),
                                     static_cast<double>(r0[d]));
        acc = Sse2Step(acc, v, query[d]);
      }
      if (d < dim && _mm_movemask_pd(_mm_cmpgt_pd(acc, thr)) == 0x3) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) {
      out[i] = kAbandoned;
      out[i + 1] = kAbandoned;
    } else {
      _mm_storeu_pd(out + i, acc);
    }
  }
  if (i < count) {
    ContigScalar(base + i * dim, count - i, dim, query, threshold, out + i);
  }
}

void GatherSse2(const float* base, size_t dim, const uint32_t* positions,
                size_t count, const double* query, double* out) {
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const float* r0 = base + static_cast<size_t>(positions[i]) * dim;
    const float* r1 = base + static_cast<size_t>(positions[i + 1]) * dim;
    _mm_storeu_pd(out + i, Sse2Pair(r0, r1, dim, query));
  }
  if (i < count) {
    GatherScalar(base, dim, positions + i, count - i, query, out + i);
  }
}

void AdcSse2(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double threshold, double* out) {
  const bool abandon = threshold != kInf;
  const __m128d thr = _mm_set1_pd(threshold);
  size_t i = 0;
  // Four rows per block as two lane pairs; table entries come in through
  // scalar loads (the indices are data-dependent), the adds run per lane in
  // ascending-s order like the scalar reference.
  for (; i + 4 <= count; i += 4) {
    const uint8_t* c0 = codes + i * m;
    const uint8_t* c1 = c0 + m;
    const uint8_t* c2 = c1 + m;
    const uint8_t* c3 = c2 + m;
    __m128d acc01 = _mm_setzero_pd();
    __m128d acc23 = _mm_setzero_pd();
    size_t s = 0;
    bool abandoned = false;
    while (s < m) {
      const size_t stop = abandon ? std::min(m, s + kAdcAbandonStride) : m;
      const double* t = table + s * ksub;
      for (; s < stop; ++s, t += ksub) {
        acc01 = _mm_add_pd(acc01, _mm_set_pd(t[c1[s]], t[c0[s]]));
        acc23 = _mm_add_pd(acc23, _mm_set_pd(t[c3[s]], t[c2[s]]));
      }
      if (abandon && s < m &&
          (_mm_movemask_pd(_mm_cmpgt_pd(acc01, thr)) &
           _mm_movemask_pd(_mm_cmpgt_pd(acc23, thr))) == 0x3) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) {
      out[i] = kAbandoned;
      out[i + 1] = kAbandoned;
      out[i + 2] = kAbandoned;
      out[i + 3] = kAbandoned;
    } else {
      _mm_storeu_pd(out + i, acc01);
      _mm_storeu_pd(out + i + 2, acc23);
    }
  }
  if (i < count) {
    AdcScalar(codes + i * m, count - i, m, ksub, table, threshold, out + i);
  }
}

void SqrtSse2(double* values, size_t count) {
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    _mm_storeu_pd(values + i, _mm_sqrt_pd(_mm_loadu_pd(values + i)));
  }
  SqrtScalar(values + i, count - i);
}

size_t FirstNotAboveSse2(const double* values, size_t count,
                         double threshold) {
  const __m128d thr = _mm_set1_pd(threshold);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const int over =
        _mm_movemask_pd(_mm_cmpgt_pd(_mm_loadu_pd(values + i), thr));
    if (over != 0x3) return (over & 1) != 0 ? i + 1 : i;
  }
  return i + FirstNotAboveScalar(values + i, count - i, threshold);
}

namespace {

/// The fp32 bounds of the four rows at `rows`, one per lane: each row's
/// dims accumulate four lanes wide, then a 4x4 transpose and three adds.
inline __m128 Sse2GroupBound4(const float* rows, size_t dim,
                              const float* query) {
  const size_t d4 = dim & ~size_t{3};
  __m128 acc[4];
  for (size_t r = 0; r < 4; ++r) {
    const float* row = rows + r * dim;
    __m128 a = _mm_setzero_ps();
    for (size_t d = 0; d < d4; d += 4) {
      const __m128 x =
          _mm_sub_ps(_mm_loadu_ps(row + d), _mm_loadu_ps(query + d));
      a = _mm_add_ps(a, _mm_mul_ps(x, x));
    }
    const float rest = FloatRowBound(row, query, d4, dim, 0.0f);
    acc[r] = _mm_add_ss(a, _mm_set_ss(rest));
  }
  _MM_TRANSPOSE4_PS(acc[0], acc[1], acc[2], acc[3]);
  return _mm_add_ps(_mm_add_ps(acc[0], acc[1]), _mm_add_ps(acc[2], acc[3]));
}

}  // namespace

size_t FilterSse2(const float* base, size_t count, size_t dim,
                  const float* query, float limit, uint32_t* survivors) {
  const __m128 lim = _mm_set1_ps(limit);
  const __m128 finite = _mm_set1_ps(std::numeric_limits<float>::max());
  size_t kept = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128 bound = Sse2GroupBound4(base + i * dim, dim, query);
    const unsigned reject = static_cast<unsigned>(_mm_movemask_ps(
        _mm_and_ps(_mm_cmpgt_ps(bound, lim), _mm_cmple_ps(bound, finite))));
    for (unsigned keep = ~reject & 0xFu; keep != 0; keep &= keep - 1) {
      survivors[kept++] =
          static_cast<uint32_t>(i + static_cast<size_t>(__builtin_ctz(keep)));
    }
  }
  return FilterTail(base, i, count, dim, query, limit, survivors, kept);
}

bool BoundsSse2(const float* base, size_t count, size_t dim,
                const float* query, float* out) {
  const __m128 finite = _mm_set1_ps(std::numeric_limits<float>::max());
  __m128 not_finite = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128 bound = Sse2GroupBound4(base + i * dim, dim, query);
    _mm_storeu_ps(out + i, bound);
    not_finite = _mm_or_ps(not_finite, _mm_cmpnle_ps(bound, finite));
  }
  const bool tail_finite =
      BoundsScalar(base + i * dim, count - i, dim, query, out + i);
  return _mm_movemask_ps(not_finite) == 0 && tail_finite;
}

void RectGapSse2(const float* lo, const float* hi, size_t dim,
                 const double* const* queries, size_t num_queries,
                 double* out) {
  const __m128d zero = _mm_setzero_pd();
  // gap = std::max(std::max(below, above), 0.0) lane-wise: maxpd(a, b) is
  // (a > b) ? a : b, and std::max(x, y) is (x < y) ? y : x, so
  // std::max(x, y) == maxpd(y, x) bit for bit, signed zeros and NaN alike.
  const auto step = [&](__m128d acc, __m128d q, size_t d) {
    const __m128d below = _mm_sub_pd(_mm_set1_pd(lo[d]), q);
    const __m128d above = _mm_sub_pd(q, _mm_set1_pd(hi[d]));
    const __m128d gap = _mm_max_pd(zero, _mm_max_pd(above, below));
    return _mm_add_pd(acc, _mm_mul_pd(gap, gap));
  };
  size_t j = 0;
  for (; j + 2 <= num_queries; j += 2) {
    const double* q0 = queries[j];
    const double* q1 = queries[j + 1];
    __m128d acc = zero;
    size_t d = 0;
    for (; d + 2 <= dim; d += 2) {
      const __m128d v0 = _mm_loadu_pd(q0 + d);
      const __m128d v1 = _mm_loadu_pd(q1 + d);
      acc = step(acc, _mm_unpacklo_pd(v0, v1), d);
      acc = step(acc, _mm_unpackhi_pd(v0, v1), d + 1);
    }
    for (; d < dim; ++d) acc = step(acc, _mm_set_pd(q1[d], q0[d]), d);
    _mm_storeu_pd(out + j, acc);
  }
  RectGapScalar(lo, hi, dim, queries + j, num_queries - j, out + j);
}

#endif  // x86-64

}  // namespace internal

namespace {

using internal::ContigScalar;
using internal::GatherScalar;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct KernelOps {
  void (*contig)(const float*, size_t, size_t, const double*, double,
                 double*);
  void (*gather)(const float*, size_t, const uint32_t*, size_t,
                 const double*, double*);
  void (*adc)(const uint8_t*, size_t, size_t, size_t, const double*, double,
              double*);
  void (*sqrt)(double*, size_t);
  size_t (*first_not_above)(const double*, size_t, double);
  size_t (*filter)(const float*, size_t, size_t, const float*, float,
                   uint32_t*);
  bool (*bounds)(const float*, size_t, size_t, const float*, float*);
  void (*rect_gap)(const float*, const float*, size_t, const double* const*,
                   size_t, double*);
};

constexpr KernelOps kScalarOps = {&ContigScalar, &GatherScalar,
                                  &internal::AdcScalar, &internal::SqrtScalar,
                                  &internal::FirstNotAboveScalar,
                                  &internal::FilterScalar,
                                  &internal::BoundsScalar,
                                  &internal::RectGapScalar};
#if defined(__x86_64__) || defined(_M_X64)
constexpr KernelOps kSse2Ops = {&internal::ContigSse2, &internal::GatherSse2,
                                &internal::AdcSse2, &internal::SqrtSse2,
                                &internal::FirstNotAboveSse2,
                                &internal::FilterSse2, &internal::BoundsSse2,
                                &internal::RectGapSse2};
constexpr KernelOps kAvx2Ops = {&internal::ContigAvx2, &internal::GatherAvx2,
                                &internal::AdcAvx2, &internal::SqrtAvx2,
                                &internal::FirstNotAboveAvx2,
                                &internal::FilterAvx2, &internal::BoundsAvx2,
                                &internal::RectGapAvx2};
#endif

const KernelOps& OpsFor(Backend backend) {
  switch (backend) {
#if defined(__x86_64__) || defined(_M_X64)
    case Backend::kSse2:
      return kSse2Ops;
    case Backend::kAvx2:
      return kAvx2Ops;
#endif
    default:
      return kScalarOps;
  }
}

Backend BestSupportedBackend() {
#if defined(__x86_64__) || defined(_M_X64)
  if (BackendSupported(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kSse2;
#else
  return Backend::kScalar;
#endif
}

/// -1 = no test override; otherwise a Backend value.
std::atomic<int> g_forced_backend{-1};

}  // namespace

Backend ActiveBackend() {
  const int forced = g_forced_backend.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<Backend>(forced);
  static const Backend best = BestSupportedBackend();
  return best;
}

bool BackendSupported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(_M_X64)
      return true;
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void SetBackendForTesting(Backend backend) {
  if (!BackendSupported(backend)) backend = Backend::kScalar;
  g_forced_backend.store(static_cast<int>(backend),
                         std::memory_order_release);
}

void ResetBackendForTesting() {
  g_forced_backend.store(-1, std::memory_order_release);
}

namespace {

/// Widens a float query to double (exact) into a per-thread buffer.
const double* WidenQuery(std::span<const float> query) {
  static thread_local std::vector<double> buffer;
  buffer.resize(query.size());
  for (size_t d = 0; d < query.size(); ++d) {
    buffer[d] = static_cast<double>(query[d]);
  }
  return buffer.data();
}

}  // namespace

void BatchSquaredDistance(const float* base, size_t count, size_t dim,
                          std::span<const float> query, double* out) {
  QVT_DCHECK(query.size() == dim);
  OpsFor(ActiveBackend()).contig(base, count, dim, WidenQuery(query), kInf,
                                 out);
}

void BatchSquaredDistance(const float* base, size_t count, size_t dim,
                          std::span<const double> query, double* out) {
  QVT_DCHECK(query.size() == dim);
  OpsFor(ActiveBackend()).contig(base, count, dim, query.data(), kInf, out);
}

void BatchSquaredDistanceAbandon(const float* base, size_t count, size_t dim,
                                 std::span<const float> query,
                                 double threshold, double* out) {
  QVT_DCHECK(query.size() == dim);
  OpsFor(ActiveBackend())
      .contig(base, count, dim, WidenQuery(query), threshold, out);
}

void GatherSquaredDistance(const float* base, size_t dim,
                           std::span<const uint32_t> positions,
                           std::span<const double> query, double* out) {
  QVT_DCHECK(query.size() == dim);
  OpsFor(ActiveBackend())
      .gather(base, dim, positions.data(), positions.size(), query.data(),
              out);
}

void BuildAdcTable(const float* codebooks, size_t m, size_t ksub,
                   size_t sub_dim, std::span<const float> query,
                   double* table) {
  QVT_DCHECK(query.size() == m * sub_dim);
  const double* q = WidenQuery(query);
  const KernelOps& ops = OpsFor(ActiveBackend());
  for (size_t s = 0; s < m; ++s) {
    ops.contig(codebooks + s * ksub * sub_dim, ksub, sub_dim,
               q + s * sub_dim, kInf, table + s * ksub);
  }
}

void AdcScan(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double* out) {
  OpsFor(ActiveBackend()).adc(codes, count, m, ksub, table, kInf, out);
}

void AdcScanAbandon(const uint8_t* codes, size_t count, size_t m,
                    size_t ksub, const double* table, double threshold,
                    double* out) {
  OpsFor(ActiveBackend()).adc(codes, count, m, ksub, table, threshold, out);
}

namespace {

/// Rows per fused block on the per-query path: 128 rows x 24 dims x 4 B =
/// 12 KiB of descriptor data — comfortably L1-resident, so every query
/// after the first sweeps a hot block. A multiple of every backend's
/// lane-group size (2 rows for SSE2 pairs, 4 for AVX2), so splitting a
/// caller's range at block boundaries never re-pairs rows and per-query
/// results are bit-identical to one unsplit call.
constexpr size_t kFusedRowBlock = 128;

}  // namespace

void MultiQueryBatchSquaredDistanceAbandon(const float* base, size_t count,
                                           size_t dim,
                                           const double* const* queries,
                                           const double* thresholds,
                                           size_t num_queries,
                                           double* const* outs) {
  const Backend backend = ActiveBackend();
#if defined(__x86_64__) || defined(_M_X64)
  // A lone query has no transpose to share: the single-query kernel's
  // per-group loop below is its faster form.
  if (backend == Backend::kAvx2 && dim == 24 && num_queries > 1) {
    internal::MultiContig24Avx2(base, count, queries, thresholds, num_queries,
                                outs);
    return;
  }
#endif
  const KernelOps& ops = OpsFor(backend);
  for (size_t b = 0; b < count; b += kFusedRowBlock) {
    const size_t bn = std::min(kFusedRowBlock, count - b);
    for (size_t q = 0; q < num_queries; ++q) {
      ops.contig(base + b * dim, bn, dim, queries[q], thresholds[q],
                 outs[q] + b);
    }
  }
}

void SqrtInPlace(double* values, size_t count) {
  OpsFor(ActiveBackend()).sqrt(values, count);
}

size_t FirstNotAbove(const double* values, size_t count, double threshold) {
  return OpsFor(ActiveBackend()).first_not_above(values, count, threshold);
}

float FloatFilterLimit(double threshold, size_t dim) {
  constexpr double kFloor = 0x1p-100;
  // gamma bounds the fp32 bound's relative error, and 6u is spare
  // (DESIGN.md "Float bound filter"); dim + 2 < 2^23 keeps nu below 1/2.
  const double nu = static_cast<double>(dim + 2) * 0x1p-24;
  const double slack = nu / (1.0 - nu) + 6 * 0x1p-24;
  const double wanted = std::max(threshold + threshold * slack, kFloor);
  if (!(wanted <= std::numeric_limits<float>::max())) {
    return std::numeric_limits<float>::infinity();
  }
  // Rounded up, never to nearest: the margin proof needs limit >= wanted.
  float limit = static_cast<float>(wanted);
  if (static_cast<double>(limit) < wanted) {
    limit = std::nextafter(limit, std::numeric_limits<float>::infinity());
  }
  return limit;
}

size_t FloatBoundFilter(const float* base, size_t count, size_t dim,
                        std::span<const float> query, double threshold,
                        uint32_t* survivors) {
  QVT_DCHECK(query.size() == dim);
  return OpsFor(ActiveBackend())
      .filter(base, count, dim, query.data(),
              FloatFilterLimit(threshold, dim), survivors);
}

bool FloatSquaredBounds(const float* base, size_t count, size_t dim,
                        std::span<const float> query, float* out) {
  QVT_DCHECK(query.size() == dim);
  return OpsFor(ActiveBackend()).bounds(base, count, dim, query.data(), out);
}

void RectangleGapSums(const float* lo, const float* hi, size_t dim,
                      const double* const* queries, size_t num_queries,
                      double* out) {
  OpsFor(ActiveBackend()).rect_gap(lo, hi, dim, queries, num_queries, out);
}

double AbandonThreshold(double distance) {
  if (!(distance < kInf)) return kInf;
  const double sq = distance * distance;
  // Relative inflation of 1e-12 dwarfs the few-ulp (~4e-16 relative) error
  // introduced by squaring here and by the caller's sqrt, so a running sum
  // above the threshold is provably above the bound in exact arithmetic.
  return sq + sq * 1e-12;
}

}  // namespace kernels
}  // namespace qvt

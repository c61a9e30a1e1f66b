#ifndef QVT_GEOMETRY_KERNELS_H_
#define QVT_GEOMETRY_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace qvt {

/// Batched squared-distance kernels — the in-memory scan engine behind the
/// searcher, the exact scan, and the clusterers.
///
/// ## Determinism contract
///
/// Every kernel (except the float bound filter, which reports nothing; see
/// its section below) computes, for each row i,
///
///     out[i] = sum_d ((double)row_i[d] - query[d])^2
///
/// with the terms accumulated in ascending-d order and every operation
/// rounded exactly as the scalar reference (`vec::SquaredDistance`) rounds
/// it. The SIMD backends vectorize **across rows** — one vector lane per
/// row, each lane performing the same sequential reduction the scalar loop
/// performs — so scalar, SSE2 and AVX2 all produce bit-identical doubles.
/// Search results therefore do not depend on the selected backend, and the
/// bench suite-cache fingerprint does not depend on it either.
/// (The fixed per-lane reduction tree is what makes this hold; a classic
/// within-vector horizontal reduction would reorder the additions. The
/// build also pins `-ffp-contract=off` globally so no scalar path is
/// silently contracted into FMA under wider `-march` flags.)
///
/// ## Backend dispatch
///
/// The backend is chosen once at runtime: AVX2 when the CPU supports it
/// (with FMA, which only the float bound filter uses), else SSE2 on x86-64,
/// else portable scalar. Only SetBackendForTesting overrides the choice;
/// tests/backend_matrix_test.cc holds every backend to the scalar reference
/// through every search method.
namespace kernels {

enum class Backend { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Backend every kernel call currently dispatches to.
Backend ActiveBackend();

/// True when `backend` can run on this CPU/build.
bool BackendSupported(Backend backend);

/// Every backend this CPU runs, scalar first: it is the reference the
/// others are held to.
std::vector<Backend> SupportedBackends();

/// "scalar", "sse2" or "avx2".
const char* BackendName(Backend backend);

/// Pins dispatch to `backend` (scalar substitutes when unsupported) until
/// ResetBackendForTesting(). For tests and microbenchmarks; call from a
/// single thread before spawning workers.
void SetBackendForTesting(Backend backend);
void ResetBackendForTesting();

/// Sentinel stored by BatchSquaredDistanceAbandon for rows it pruned.
inline constexpr double kAbandoned =
    std::numeric_limits<double>::infinity();

/// Squared distances from `query` to `count` rows stored contiguously
/// row-major in `base` (count * dim floats). The float-query overload
/// widens the query to double first (exact, matching the scalar loop).
void BatchSquaredDistance(const float* base, size_t count, size_t dim,
                          std::span<const float> query, double* out);
void BatchSquaredDistance(const float* base, size_t count, size_t dim,
                          std::span<const double> query, double* out);

/// Early-abandoning variant: a row whose running sum strictly exceeds
/// `threshold` (squared space) may stop accumulating; its out[i] is set to
/// kAbandoned. Rows that complete are bit-identical to the plain kernel.
/// Which rows get abandoned is backend-specific (SIMD backends only prune
/// when every lane of a block is over the threshold); callers must treat
/// kAbandoned as "provably farther than threshold" and nothing more.
/// threshold = +inf disables pruning.
void BatchSquaredDistanceAbandon(const float* base, size_t count, size_t dim,
                                 std::span<const float> query,
                                 double threshold, double* out);

/// Squared distances from `query` to the rows at `positions` of the flat
/// row-major array `base` (gathered scan — BAG's exact-radius loop over a
/// cluster's scattered members, the exact pass over a chunk's float-filter
/// survivors).
void GatherSquaredDistance(const float* base, size_t dim,
                           std::span<const uint32_t> positions,
                           std::span<const double> query, double* out);

// --- Packed-code ADC kernels (the product-quantization first pass) --------
//
// `codes` holds `count` rows of `m` uint8 codebook indices (one byte per
// subspace). `table` is a per-query asymmetric-distance table, row-major
// m x ksub doubles: table[s * ksub + c] is the squared distance from the
// query's s-th subvector to entry c of subspace s's codebook. Each kernel
// computes
//
//     out[i] = sum_s table[s * ksub + codes[i * m + s]]
//
// with the terms accumulated in ascending-s order, one lane per row — the
// same fixed-reduction discipline as the float kernels above, so scalar,
// SSE2 and AVX2 produce bit-identical doubles.

/// Fills `table` (m * ksub doubles) from `codebooks`, the concatenated
/// row-major subspace codebooks (m * ksub * sub_dim floats; subspace s's
/// entry c is row s * ksub + c). One batched squared-distance sweep per
/// subspace on the active backend; entries are bit-identical across
/// backends by the contract above. `query` holds m * sub_dim floats.
void BuildAdcTable(const float* codebooks, size_t m, size_t ksub,
                   size_t sub_dim, std::span<const float> query,
                   double* table);

/// Plain ADC scan over `count` packed code rows.
void AdcScan(const uint8_t* codes, size_t count, size_t m, size_t ksub,
             const double* table, double* out);

/// Early-abandoning ADC scan. Table entries are squared distances, hence
/// non-negative, and floating-point addition of non-negative terms is
/// monotone non-decreasing — so a running sum that strictly exceeds
/// `threshold` proves the completed sum would too, exactly, with no
/// inflation needed (unlike AbandonThreshold's margin for the sqrt path).
/// Pruned rows get kAbandoned; completed rows are bit-identical to AdcScan.
/// Which rows get pruned is backend-specific (SIMD backends only prune when
/// every lane of a block is over), exactly as with
/// BatchSquaredDistanceAbandon. threshold = +inf disables pruning.
void AdcScanAbandon(const uint8_t* codes, size_t count, size_t m,
                    size_t ksub, const double* table, double threshold,
                    double* out);

// --- Fused multi-query kernel (chunk-major batched execution) -------------
//
// The shared-scan executor inverts the batch loop: one set of rows (a
// chunk, or the centroid matrix at plan time) is swept once for many
// queries. On AVX2 at dim 24 — the paper's descriptors, which every chunk
// and centroid scan sees — and two or more queries, each 4-row group is
// widened and transposed once and then swept for the queries four at a
// time in lockstep: every query
// keeps its own accumulator, its own threshold and the same dim-8 and
// dim-16 abandon checks, and the lockstep only stops early once all four
// have abandoned. The transpose is shared and the four independent
// accumulator chains hide the add latency a lone query waits on; the
// arithmetic of each (query, row) is the single-query kernel's, step for
// step. Every other backend and dimension dispatches, per query, to the
// same per-backend routine the single-query kernels use over L1-sized row
// blocks. Either way completed values and abandon patterns are
// bit-identical to Q separate BatchSquaredDistanceAbandon calls on the same
// backend, by construction (the 4-row groups start at the same rows, and
// each group's verdict depends only on that query's own lanes).
//
// `queries`/`outs` are arrays of `num_queries` pointers; `thresholds` holds
// one abandon bound per query (squared space, +inf disables pruning for
// that query).

/// Fused multi-query form of BatchSquaredDistanceAbandon with a per-query
/// threshold (queries[q] holds dim doubles, pre-widened); pruned rows of
/// query q get outs[q][i] = kAbandoned.
void MultiQueryBatchSquaredDistanceAbandon(const float* base, size_t count,
                                           size_t dim,
                                           const double* const* queries,
                                           const double* thresholds,
                                           size_t num_queries,
                                           double* const* outs);

// --- Float bound filter (the chunk sweep under a finite limit) -------------
//
// Outside the determinism contract above. The filter's fp32 values are
// never reported: they only decide which rows reach the exact double
// kernel, so here alone FMA contraction and any summation order are
// allowed, and backends may disagree on a value. What every backend keeps
// is the margin: a row is rejected only when its exact kernel value
// provably exceeds the threshold, so no row that admission would offer is
// ever rejected (proof in DESIGN.md "Float bound filter").

/// The float limit of the filter for squared-space `threshold` at `dim`:
/// the smallest float no less than max(threshold + threshold * slack,
/// 2^-100), computed in double, with slack = gamma + 6u, u = 2^-24, gamma =
/// nu / (1 - nu), nu = (dim + 2) * u: gamma bounds the fp32 bound's
/// relative error. +inf (no rejection) for threshold = +inf or beyond float
/// range.
float FloatFilterLimit(double threshold, size_t dim);

/// Writes to `survivors`, ascending, every row index i in [0, count) that
/// the float bound cannot rule out, and returns how many. Row i's bound is
/// D = sum_d (row_i[d] - query[d])^2 in fp32; the row is rejected only when
/// FloatFilterLimit(threshold, dim) < D <= FLT_MAX, so an overflowed
/// (+inf) or NaN value never rejects. Every rejected row's exact kernel
/// value exceeds `threshold`: `!(exact > threshold)` rows always survive.
size_t FloatBoundFilter(const float* base, size_t count, size_t dim,
                        std::span<const float> query, double threshold,
                        uint32_t* survivors);

/// out[i] = row i's fp32 bound D, the value FloatBoundFilter tests, for
/// every i in [0, count): the MaxChunks plan's first pass over the centroid
/// matrix (DESIGN.md "Float-first plan"). A row whose exact kernel value is
/// not above `threshold` never has FloatFilterLimit(threshold, dim) < D <=
/// FLT_MAX, by the filter's margin proof; the values themselves are
/// backend-specific. Returns false when some D is not finite (an
/// overflowed or NaN sum).
bool FloatSquaredBounds(const float* base, size_t count, size_t dim,
                        std::span<const float> query, float* out);

// --- Chunk rectangle bound (chunk-level abandon) ----------------------------

/// out[j] = sum_d gap_d^2 for query j, gap_d = std::max(std::max(lo[d] -
/// q_j[d], q_j[d] - hi[d]), 0.0) in double, accumulated in ascending-d
/// order: the rectangle lower bound of a chunk for each query. One lane
/// per query, each running the scalar loop's operations, so every backend
/// is bit-identical to it (gaps of 0 and -0.0 included).
void RectangleGapSums(const float* lo, const float* hi, size_t dim,
                      const double* const* queries, size_t num_queries,
                      double* out);

// --- Helpers of the planning and admission steps ---------------------------

/// values[i] = sqrt(values[i]) for every i, vectorized across values. IEEE
/// sqrt is correctly rounded, so every backend matches std::sqrt bit for
/// bit.
void SqrtInPlace(double* values, size_t count);

/// Index of the first i in [0, count) with !(values[i] > threshold), or
/// `count` when every value exceeds it: the admission prefilter, which
/// passes over a group of rows (one vector lane per row) with one compare.
/// NaN counts as not above, like the plain `values[i] > threshold` test.
size_t FirstNotAbove(const double* values, size_t count, double threshold);

/// Conservative squared-space abandon threshold for a bound expressed as a
/// (post-sqrt) distance: slightly inflated so that `running > threshold`
/// proves `sqrt(final) > distance` despite the squaring and sqrt roundings
/// (margin ~1e-12 relative, >> the few-ulp error budget). Abandoning on it
/// can therefore never drop a result the un-pruned scan would have kept,
/// ties included. Returns +inf for distance = +inf.
double AbandonThreshold(double distance);

}  // namespace kernels
}  // namespace qvt

#endif  // QVT_GEOMETRY_KERNELS_H_

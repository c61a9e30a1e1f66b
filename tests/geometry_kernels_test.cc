#include "geometry/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "geometry/vec.h"
#include "kernel_backends.h"
#include "util/random.h"

namespace qvt {
namespace {

using kernels::Backend;

std::vector<float> RandomFloats(Rng& rng, size_t n, double lo = -50.0,
                                double hi = 100.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.UniformDouble(lo, hi));
  return v;
}

/// The documented reference: vec::SquaredDistance per row.
std::vector<double> Reference(const float* base, size_t count, size_t dim,
                              std::span<const float> query) {
  std::vector<double> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = vec::SquaredDistance({base + i * dim, dim}, query);
  }
  return out;
}

TEST(KernelsTest, BackendPlumbing) {
  EXPECT_TRUE(kernels::BackendSupported(Backend::kScalar));
  EXPECT_STREQ(kernels::BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(kernels::BackendName(Backend::kAvx2), "avx2");
  EXPECT_TRUE(kernels::BackendSupported(kernels::ActiveBackend()));
  {
    BackendGuard guard(Backend::kScalar);
    EXPECT_EQ(kernels::ActiveBackend(), Backend::kScalar);
  }
  EXPECT_TRUE(kernels::BackendSupported(kernels::ActiveBackend()));
}

TEST(KernelsTest, MatchesScalarReferenceBitwiseAcrossDims) {
  Rng rng(42);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t dim = 1; dim <= 64; ++dim) {
      for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{7}, size_t{17}}) {
        const std::vector<float> base = RandomFloats(rng, count * dim);
        const std::vector<float> query = RandomFloats(rng, dim);
        const std::vector<double> expected =
            Reference(base.data(), count, dim, query);
        std::vector<double> got(count, -1.0);
        kernels::BatchSquaredDistance(base.data(), count, dim, query,
                                      got.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], expected[i])
              << "backend=" << kernels::BackendName(backend)
              << " dim=" << dim << " count=" << count << " row=" << i;
        }
      }
    }
  }
}

TEST(KernelsTest, Dim24FastPathMatchesReference) {
  Rng rng(7);
  const size_t dim = 24;
  const size_t count = 1000;  // odd-tail block coverage via count % 4 != 0
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t c : {count, count + 1, count + 2, count + 3}) {
      const std::vector<float> base = RandomFloats(rng, c * dim);
      const std::vector<float> query = RandomFloats(rng, dim);
      const std::vector<double> expected =
          Reference(base.data(), c, dim, query);
      std::vector<double> got(c);
      kernels::BatchSquaredDistance(base.data(), c, dim, query, got.data());
      for (size_t i = 0; i < c; ++i) {
        ASSERT_EQ(got[i], expected[i])
            << kernels::BackendName(backend) << " row " << i;
      }
    }
  }
}

TEST(KernelsTest, DoubleQueryOverloadMatchesWidenedFloatQuery) {
  Rng rng(11);
  const size_t dim = 24, count = 33;
  const std::vector<float> base = RandomFloats(rng, count * dim);
  const std::vector<float> query = RandomFloats(rng, dim);
  std::vector<double> query_d(query.begin(), query.end());
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    std::vector<double> from_f(count), from_d(count);
    kernels::BatchSquaredDistance(base.data(), count, dim, query,
                                  from_f.data());
    kernels::BatchSquaredDistance(base.data(), count, dim,
                                  std::span<const double>(query_d),
                                  from_d.data());
    EXPECT_EQ(from_f, from_d) << kernels::BackendName(backend);
  }
}

TEST(KernelsTest, UnalignedBaseAndRows) {
  Rng rng(13);
  // Odd dim at an offset-by-one base: every row is 4-byte aligned at best.
  const size_t dim = 23, count = 9;
  const std::vector<float> storage = RandomFloats(rng, count * dim + 1);
  const float* base = storage.data() + 1;
  const std::vector<float> query = RandomFloats(rng, dim);
  const std::vector<double> expected = Reference(base, count, dim, query);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    std::vector<double> got(count);
    kernels::BatchSquaredDistance(base, count, dim, query, got.data());
    EXPECT_EQ(got, expected) << kernels::BackendName(backend);
  }
}

TEST(KernelsTest, EmptyInputs) {
  const std::vector<float> query(24, 1.0f);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    // count == 0: no writes, no crashes.
    kernels::BatchSquaredDistance(nullptr, 0, 24, query, nullptr);
    kernels::GatherSquaredDistance(nullptr, 24, {}, std::vector<double>(24),
                                   nullptr);
    // dim == 0: all-zero distances.
    const float base[4] = {1, 2, 3, 4};
    double out[4] = {-1, -1, -1, -1};
    kernels::BatchSquaredDistance(base, 4, 0, std::span<const float>(),
                                  out);
    for (double v : out) EXPECT_EQ(v, 0.0);
  }
}

TEST(KernelsTest, AbandonKeepsExactValuesAndPrunesOnlyProvablyFar) {
  Rng rng(17);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t dim : {size_t{8}, size_t{24}, size_t{37}}) {
      const size_t count = 257;
      // Near rows (first half) sit with the query in [0, 1]^dim; far rows
      // are offset so their partial sums cross the threshold within the
      // first few dimensions.
      std::vector<float> base = RandomFloats(rng, count * dim, 0.0, 1.0);
      for (size_t i = count / 2 * dim; i < count * dim; ++i) {
        base[i] += 100.0f;
      }
      const std::vector<float> query = RandomFloats(rng, dim, 0.0, 1.0);
      const std::vector<double> exact =
          Reference(base.data(), count, dim, query);
      const double threshold =
          *std::max_element(exact.begin(), exact.begin() + count / 2);
      std::vector<double> got(count);
      kernels::BatchSquaredDistanceAbandon(base.data(), count, dim, query,
                                           threshold, got.data());
      size_t abandoned = 0;
      for (size_t i = 0; i < count; ++i) {
        if (got[i] == kernels::kAbandoned) {
          // Abandoning is only legal when the true value exceeds the
          // threshold.
          EXPECT_GT(exact[i], threshold) << i;
          ++abandoned;
        } else {
          EXPECT_EQ(got[i], exact[i])
              << kernels::BackendName(backend) << " dim=" << dim << " " << i;
        }
      }
      // Abandon checks happen at stride boundaries before the last
      // dimension, so any dim beyond one stride must prune the far rows.
      if (dim > 8) {
        EXPECT_GT(abandoned, 0u)
            << kernels::BackendName(backend) << " dim=" << dim;
      }
      // +inf threshold never abandons and is bit-identical throughout.
      kernels::BatchSquaredDistanceAbandon(
          base.data(), count, dim, query,
          std::numeric_limits<double>::infinity(), got.data());
      EXPECT_EQ(got, exact);
    }
  }
}

TEST(KernelsTest, GatherMatchesScalarReference) {
  Rng rng(19);
  const size_t dim = 24, rows = 100;
  const std::vector<float> base = RandomFloats(rng, rows * dim);
  const std::vector<float> query_f = RandomFloats(rng, dim);
  const std::vector<double> query(query_f.begin(), query_f.end());
  std::vector<uint32_t> positions;
  for (size_t i = 0; i < 31; ++i) {
    positions.push_back(rng.Uniform(static_cast<uint32_t>(rows)));
  }
  std::vector<double> expected(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    expected[i] = vec::SquaredDistance(
        {base.data() + positions[i] * dim, dim}, query_f);
  }
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    std::vector<double> got(positions.size());
    kernels::GatherSquaredDistance(base.data(), dim, positions, query,
                                   got.data());
    EXPECT_EQ(got, expected) << kernels::BackendName(backend);
    // Every short count (the filter's survivors), nothing written past it.
    for (size_t count = 0; count <= 9; ++count) {
      std::vector<double> some(count + 1, -1.0);
      kernels::GatherSquaredDistance(
          base.data(), dim, std::span(positions).first(count), query,
          some.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(some[i], expected[i])
            << kernels::BackendName(backend) << " count " << count;
      }
      EXPECT_EQ(some[count], -1.0) << kernels::BackendName(backend);
    }
  }
}

TEST(KernelsTest, AbandonThresholdIsConservative) {
  EXPECT_EQ(kernels::AbandonThreshold(
                std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(kernels::AbandonThreshold(0.0), 0.0);
  // The threshold must sit strictly above the rounded square so an exact
  // tie in distance space can never be pruned.
  for (double d : {1.0, 3.25, 1e-3, 123456.75}) {
    const double t = kernels::AbandonThreshold(d);
    EXPECT_GT(t, d * d);
    // ...but within a sliver of it, so pruning power is not lost.
    EXPECT_LT(t, d * d * (1.0 + 1e-9));
  }
}

// SqrtInPlace is the correctly rounded sqrt on every backend, so it must
// equal std::sqrt bit for bit, at every count (vector bodies and tails).
TEST(KernelsTest, SqrtInPlaceMatchesStdSqrtBitwise) {
  Rng rng(61);
  std::vector<double> values(37);
  for (double& v : values) v = rng.UniformDouble(0.0, 1e4);
  values[3] = 0.0;
  values[4] = std::numeric_limits<double>::infinity();
  values[5] = 2.0;
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t count = 0; count <= values.size(); ++count) {
      std::vector<double> got(values.begin(), values.begin() + count);
      kernels::SqrtInPlace(got.data(), count);
      for (size_t i = 0; i < count; ++i) {
        const double want = std::sqrt(values[i]);
        EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
            << kernels::BackendName(backend) << " count " << count << " i "
            << i;
      }
    }
  }
}

// FirstNotAbove is the plain `!(values[i] > threshold)` search: ties and
// NaN stop it, +inf values pass over, and the answer is `count` when every
// value exceeds the threshold — at every start offset and count.
TEST(KernelsTest, FirstNotAboveMatchesPlainLoop) {
  Rng rng(67);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values(41);
  for (double& v : values) {
    switch (rng.Uniform(5)) {
      case 0:
        v = 5.0;  // a tie at the threshold below
        break;
      case 1:
        v = inf;
        break;
      default:
        v = rng.UniformDouble(5.0, 9.0);
        break;
    }
  }
  values[17] = std::numeric_limits<double>::quiet_NaN();
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (const double threshold : {5.0, 4.0, 9.0, inf}) {
      for (size_t begin = 0; begin <= values.size(); ++begin) {
        for (size_t count = 0; begin + count <= values.size(); ++count) {
          size_t want = count;
          for (size_t i = 0; i < count; ++i) {
            if (!(values[begin + i] > threshold)) {
              want = i;
              break;
            }
          }
          ASSERT_EQ(kernels::FirstNotAbove(values.data() + begin, count,
                                           threshold),
                    want)
              << kernels::BackendName(backend) << " threshold " << threshold
              << " begin " << begin << " count " << count;
        }
      }
    }
  }
}

// --- Float bound filter ---------------------------------------------------

/// Runs the filter on `count = base.size() / dim` rows under `threshold`
/// and holds it to its contract against the exact kernel values: every row
/// admission would offer (!(exact > threshold), NaN included) survives, and
/// survivors are ascending and in range. The bound pass
/// (kernels::FloatSquaredBounds, the MaxChunks plan's) must report the very
/// bounds the filter tested: a row survives exactly when its bound is not
/// in (FloatFilterLimit, FLT_MAX], and the pass reports every bound finite
/// exactly when each is. Returns how many rows the filter rejected.
size_t ExpectFilterKeepsOfferedRows(const std::vector<float>& base,
                                    size_t dim,
                                    const std::vector<float>& query,
                                    double threshold,
                                    const std::string& label) {
  const size_t count = base.size() / dim;
  const std::vector<double> exact = Reference(base.data(), count, dim, query);
  std::vector<uint32_t> survivors(count);
  const size_t kept = kernels::FloatBoundFilter(
      base.data(), count, dim, query, threshold, survivors.data());
  EXPECT_LE(kept, count) << label;
  std::vector<bool> survived(count, false);
  for (size_t s = 0; s < kept && s < count; ++s) {
    EXPECT_LT(survivors[s], count) << label;
    if (s > 0) {
      EXPECT_LT(survivors[s - 1], survivors[s]) << label;
    }
    if (survivors[s] < count) survived[survivors[s]] = true;
  }
  for (size_t i = 0; i < count; ++i) {
    if (!(exact[i] > threshold)) {
      EXPECT_TRUE(survived[i])
          << label << " row " << i << " exact " << exact[i] << " threshold "
          << threshold;
    }
  }
  std::vector<float> bounds(count);
  const bool finite = kernels::FloatSquaredBounds(base.data(), count, dim,
                                                  query, bounds.data());
  const float limit = kernels::FloatFilterLimit(threshold, dim);
  bool all_finite = true;
  for (size_t i = 0; i < count; ++i) {
    const bool bounded = bounds[i] <= std::numeric_limits<float>::max();
    all_finite = all_finite && bounded;
    EXPECT_EQ(survived[i], !(bounds[i] > limit && bounded))
        << label << " row " << i << " bound " << bounds[i] << " limit "
        << limit;
  }
  EXPECT_EQ(finite, all_finite) << label;
  return count - kept;
}

/// Every row's exact value as a threshold (ties), then 0, +inf, the median
/// and AbandonThreshold of each row's distance, as the searcher derives it.
/// Returns the rejections under the median threshold.
size_t ExpectFilterKeepsOfferedRowsAtTies(const std::vector<float>& base,
                                          size_t dim,
                                          const std::vector<float>& query,
                                          const std::string& label) {
  const size_t count = base.size() / dim;
  std::vector<double> exact = Reference(base.data(), count, dim, query);
  for (size_t i = 0; i < count; ++i) {
    const std::string row = label + " tie at row " + std::to_string(i);
    ExpectFilterKeepsOfferedRows(base, dim, query, exact[i], row);
    ExpectFilterKeepsOfferedRows(
        base, dim, query, kernels::AbandonThreshold(std::sqrt(exact[i])), row);
  }
  ExpectFilterKeepsOfferedRows(base, dim, query, 0.0, label + " limit 0");
  EXPECT_EQ(ExpectFilterKeepsOfferedRows(
                base, dim, query, std::numeric_limits<double>::infinity(),
                label + " limit inf"),
            0u)
      << label;
  std::sort(exact.begin(), exact.end());
  return ExpectFilterKeepsOfferedRows(base, dim, query, exact[count / 2],
                                      label + " median");
}

TEST(FloatFilterTest, NeverRejectsARowAdmissionWouldOffer) {
  Rng rng(2718);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t dim : {size_t{24}, size_t{1}, size_t{5}, size_t{8},
                       size_t{13}, size_t{31}}) {
      for (size_t count : {size_t{1}, size_t{7}, size_t{9}, size_t{40}}) {
        const std::string label = std::string(kernels::BackendName(backend)) +
                                  " dim " + std::to_string(dim) + " count " +
                                  std::to_string(count);
        // Random rows around the query.
        const std::vector<float> query = RandomFloats(rng, dim);
        const std::vector<float> base = RandomFloats(rng, count * dim);
        const size_t rejected = ExpectFilterKeepsOfferedRowsAtTies(
            base, dim, query, label + " random");
        if (count >= 9) {
          EXPECT_GT(rejected, 0u) << label;
        }

        // Rows and query offset by one large common vector: ||x||^2 is
        // ~1e10 times every squared distance.
        std::vector<float> shifted_query(dim);
        std::vector<float> shifted(count * dim);
        std::vector<double> shift(dim);
        for (auto& v : shift) v = rng.UniformDouble(1e4, 1e6);
        for (size_t d = 0; d < dim; ++d) {
          shifted_query[d] =
              static_cast<float>(shift[d] + rng.UniformDouble(-1, 1));
        }
        for (size_t i = 0; i < count * dim; ++i) {
          shifted[i] =
              static_cast<float>(shift[i % dim] + rng.UniformDouble(-1, 1));
        }
        ExpectFilterKeepsOfferedRowsAtTies(shifted, dim, shifted_query,
                                           label + " offset");

        // Duplicate rows, some equal to the query: exact 0 under limit 0.
        std::vector<float> dup(count * dim);
        for (size_t i = 0; i < count; ++i) {
          const float* src = i % 2 == 0 ? query.data() : base.data();
          std::copy(src, src + dim, dup.begin() + i * dim);
        }
        ExpectFilterKeepsOfferedRowsAtTies(dup, dim, query,
                                           label + " duplicates");
      }
    }
  }
}

TEST(FloatFilterTest, OverflowAndNanNeverReject) {
  constexpr float kMax = std::numeric_limits<float>::max();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t dim : {size_t{24}, size_t{3}, size_t{12}}) {
      const std::string label =
          std::string(kernels::BackendName(backend)) + " dim " +
          std::to_string(dim);
      // Query near the top of float range; rows equal to it (exact 0, but
      // fp32 terms of 2 * query overflow in the norm form), rows at -query
      // (every difference overflows fp32), rows of 1e19 (squares overflow)
      // and rows with one NaN coordinate (exact NaN: admission offers it).
      std::vector<float> query(dim);
      for (size_t d = 0; d < dim; ++d) {
        query[d] = (d % 2 == 0 ? 1.0f : -1.0f) * kMax * 0.75f;
      }
      const size_t count = 16;
      std::vector<float> base(count * dim);
      for (size_t i = 0; i < count; ++i) {
        for (size_t d = 0; d < dim; ++d) {
          float v = query[d];
          switch (i % 4) {
            case 1:
              v = -query[d];
              break;
            case 2:
              v = d == 0 ? 1e19f : query[d];
              break;
            case 3:
              v = d == i % dim ? nan : query[d];
              break;
            default:
              break;
          }
          base[i * dim + d] = v;
        }
      }
      for (const double threshold :
           {0.0, 1.0, 1e38, static_cast<double>(kMax), 3.5e38, 1e76, 1e80,
            std::numeric_limits<double>::infinity()}) {
        ExpectFilterKeepsOfferedRows(base, dim, query, threshold,
                                     label + " threshold " +
                                         std::to_string(threshold));
      }
      ExpectFilterKeepsOfferedRowsAtTies(base, dim, query, label + " ties");
    }
  }
}

TEST(FloatFilterTest, LimitIsRoundedUpFromTheSlackedThreshold) {
  constexpr double kFloor = 0x1p-100;
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(31);
  std::vector<double> thresholds = {0.0,
                                    1e-300,
                                    0x1p-149,
                                    0x1p-101,
                                    kFloor,
                                    1e-30,
                                    1.0,
                                    1.0 + 0x1p-40,
                                    3.14159,
                                    1e30,
                                    3.3e38,
                                    std::numeric_limits<float>::max(),
                                    3.5e38,
                                    1e300,
                                    inf};
  for (int i = 0; i < 2000; ++i) {
    thresholds.push_back(std::ldexp(rng.UniformDouble(1.0, 2.0),
                                    static_cast<int>(rng.Uniform(260)) - 130));
  }
  for (const size_t dim : {size_t{1}, size_t{24}, size_t{128}}) {
    const double nu = static_cast<double>(dim + 2) * 0x1p-24;
    const double slack = nu / (1.0 - nu) + 6 * 0x1p-24;
    for (const double t : thresholds) {
      const double wanted = std::max(t + t * slack, kFloor);
      const float limit = kernels::FloatFilterLimit(t, dim);
      if (wanted > std::numeric_limits<float>::max()) {
        EXPECT_EQ(limit, std::numeric_limits<float>::infinity()) << t;
        continue;
      }
      // The smallest float at or above the wanted limit: never rounded to
      // nearest (below), never looser than one float step.
      EXPECT_GE(static_cast<double>(limit), wanted)
          << "dim " << dim << " " << t;
      EXPECT_LT(static_cast<double>(std::nextafter(limit, 0.0f)), wanted)
          << "dim " << dim << " " << t;
    }
  }
}

// --- Chunk rectangle bound ------------------------------------------------

TEST(KernelsTest, RectangleGapSumsMatchScalarLoopBitwise) {
  Rng rng(1414);
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    for (size_t dim : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{8}, size_t{23}, size_t{24}, size_t{25}}) {
      std::vector<float> lo(dim);
      std::vector<float> hi(dim);
      for (size_t d = 0; d < dim; ++d) {
        const float a = static_cast<float>(rng.UniformDouble(-50, 100));
        const float b = static_cast<float>(rng.UniformDouble(-50, 100));
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b);
        if (d % 5 == 1) hi[d] = lo[d];  // a flat side
        if (d % 7 == 3) lo[d] = hi[d] = -0.0f;
      }
      for (size_t nq = 0; nq <= 9; ++nq) {
        std::vector<std::vector<double>> queries(nq, std::vector<double>(dim));
        for (size_t j = 0; j < nq; ++j) {
          for (size_t d = 0; d < dim; ++d) {
            double v = static_cast<float>(rng.UniformDouble(-80, 130));
            switch ((j + d) % 6) {
              case 0:
                v = lo[d];  // gap 0 from below
                break;
              case 1:
                v = hi[d];  // gap 0 from above
                break;
              case 2:
                v = (j % 2 == 0) ? 0.0 : -0.0;  // signed-zero gaps
                break;
              default:
                break;
            }
            queries[j][d] = v;
          }
        }
        std::vector<const double*> ptrs;
        for (const auto& q : queries) ptrs.push_back(q.data());
        std::vector<double> got(nq + 1, -1.0);
        kernels::RectangleGapSums(lo.data(), hi.data(), dim, ptrs.data(), nq,
                                  got.data());
        for (size_t j = 0; j < nq; ++j) {
          // The chunk-level abandon's scalar loop, written out.
          double expected = 0.0;
          for (size_t d = 0; d < dim; ++d) {
            const double below = static_cast<double>(lo[d]) - queries[j][d];
            const double above = queries[j][d] - static_cast<double>(hi[d]);
            const double gap = std::max(std::max(below, above), 0.0);
            expected += gap * gap;
          }
          EXPECT_EQ(std::memcmp(&got[j], &expected, sizeof(double)), 0)
              << kernels::BackendName(backend) << " dim " << dim << " nq "
              << nq << " query " << j << ": " << got[j] << " vs " << expected;
        }
        EXPECT_EQ(got[nq], -1.0);  // nothing written past the last query
      }
    }
  }
}

}  // namespace
}  // namespace qvt

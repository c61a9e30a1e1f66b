#include "geometry/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "geometry/vec.h"
#include "util/random.h"

namespace qvt {
namespace {

using kernels::Backend;

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2,
                    Backend::kNeon}) {
    if (kernels::BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

/// Restores auto-dispatch when a test scope ends.
struct BackendGuard {
  explicit BackendGuard(Backend b) { kernels::SetBackendForTesting(b); }
  ~BackendGuard() { kernels::ResetBackendForTesting(); }
};

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

}  // namespace
}  // namespace qvt

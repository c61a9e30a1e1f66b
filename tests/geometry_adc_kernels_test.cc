// Parity tests of the packed-code ADC kernels (the product-quantization
// first pass): every supported backend must produce bit-identical doubles
// for the table build and the code scan, and the early-abandoning scan may
// only prune rows that provably exceed the threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/kernels.h"
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

std::vector<uint8_t> RandomCodes(Rng& rng, size_t n, size_t ksub) {
  std::vector<uint8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<uint8_t>(rng.Uniform(static_cast<uint32_t>(ksub)));
  }
  return codes;
}

/// Non-negative random table (squared distances are non-negative; the
/// abandon proof relies on it).
std::vector<double> RandomTable(Rng& rng, size_t n) {
  std::vector<double> table(n);
  for (auto& t : table) t = rng.UniformDouble(0.0, 10.0);
  return table;
}

/// The documented reference: plain ascending-s double accumulation.
std::vector<double> Reference(const uint8_t* codes, size_t count, size_t m,
                              size_t ksub, const double* table) {
  std::vector<double> out(count);
  for (size_t i = 0; i < count; ++i) {
    double acc = 0.0;
    for (size_t s = 0; s < m; ++s) acc += table[s * ksub + codes[i * m + s]];
    out[i] = acc;
  }
  return out;
}

TEST(AdcKernelsTest, TableMatchesPerSubspaceSquaredDistanceBitwise) {
  Rng rng(7);
  for (const size_t m : {size_t{1}, size_t{3}, size_t{8}, size_t{12}}) {
    const size_t dim = 24;
    ASSERT_EQ(dim % m, 0u);
    const size_t sub_dim = dim / m;
    for (const size_t ksub : {size_t{1}, size_t{7}, size_t{256}}) {
      const std::vector<float> codebooks =
          RandomFloats(rng, m * ksub * sub_dim);
      const std::vector<float> query = RandomFloats(rng, dim);
      std::vector<double> expected(m * ksub);
      for (size_t s = 0; s < m; ++s) {
        for (size_t c = 0; c < ksub; ++c) {
          expected[s * ksub + c] = vec::SquaredDistance(
              {codebooks.data() + (s * ksub + c) * sub_dim, sub_dim},
              std::span<const float>(query).subspan(s * sub_dim, sub_dim));
        }
      }
      for (Backend backend : SupportedBackends()) {
        BackendGuard guard(backend);
        std::vector<double> table(m * ksub, -1.0);
        kernels::BuildAdcTable(codebooks.data(), m, ksub, sub_dim, query,
                               table.data());
        for (size_t j = 0; j < table.size(); ++j) {
          ASSERT_EQ(table[j], expected[j])
              << "backend=" << kernels::BackendName(backend) << " m=" << m
              << " ksub=" << ksub << " entry=" << j;
        }
      }
    }
  }
}

TEST(AdcKernelsTest, ScanMatchesReferenceBitwiseAcrossShapes) {
  Rng rng(11);
  for (const size_t m : {size_t{1}, size_t{3}, size_t{8}, size_t{12}}) {
    for (const size_t ksub : {size_t{1}, size_t{5}, size_t{256}}) {
      for (const size_t count :
           {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{7}, size_t{8},
            size_t{9}, size_t{17}, size_t{33}}) {
        const std::vector<double> table = RandomTable(rng, m * ksub);
        const std::vector<uint8_t> codes = RandomCodes(rng, count * m, ksub);
        const std::vector<double> expected =
            Reference(codes.data(), count, m, ksub, table.data());
        for (Backend backend : SupportedBackends()) {
          BackendGuard guard(backend);
          std::vector<double> got(count, -1.0);
          kernels::AdcScan(codes.data(), count, m, ksub, table.data(),
                           got.data());
          for (size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i], expected[i])
                << "backend=" << kernels::BackendName(backend) << " m=" << m
                << " ksub=" << ksub << " count=" << count << " row=" << i;
          }
        }
      }
    }
  }
}

TEST(AdcKernelsTest, AbandonKeepsCompletedRowsBitIdenticalAndPrunesSafely) {
  Rng rng(13);
  const size_t ksub = 16;
  for (const size_t m : {size_t{3}, size_t{8}, size_t{12}}) {
    const size_t count = 41;
    const std::vector<double> table = RandomTable(rng, m * ksub);
    const std::vector<uint8_t> codes = RandomCodes(rng, count * m, ksub);
    const std::vector<double> expected =
        Reference(codes.data(), count, m, ksub, table.data());
    // A low threshold so prefix sums cross it well before the last
    // subspace.
    std::vector<double> sorted = expected;
    std::sort(sorted.begin(), sorted.end());
    const double threshold = sorted[count / 8];
    // The scalar backend prunes row i exactly when some prefix sum at a
    // stride boundary b < m strictly exceeds the threshold. Simulate it.
    std::vector<bool> scalar_prunes(count, false);
    size_t expected_pruned = 0;
    for (size_t i = 0; i < count; ++i) {
      double acc = 0.0;
      for (size_t s = 0; s < m && !scalar_prunes[i]; ++s) {
        acc += table[s * ksub + codes[i * m + s]];
        const size_t done = s + 1;
        if (done % 4 == 0 && done < m && acc > threshold) {
          scalar_prunes[i] = true;
          ++expected_pruned;
        }
      }
    }
    // m at or below the stride has no interior boundary, so nothing can
    // prune; above it the seeds guarantee the fixture exercises pruning.
    if (m <= 4) {
      ASSERT_EQ(expected_pruned, 0u) << "m=" << m;
    } else {
      ASSERT_GT(expected_pruned, 0u) << "m=" << m;
      ASSERT_LT(expected_pruned, count) << "m=" << m;
    }
    for (Backend backend : SupportedBackends()) {
      BackendGuard guard(backend);
      std::vector<double> got(count, -1.0);
      kernels::AdcScanAbandon(codes.data(), count, m, ksub, table.data(),
                              threshold, got.data());
      for (size_t i = 0; i < count; ++i) {
        if (got[i] == kernels::kAbandoned) {
          // Monotone non-negative accumulation: a pruned row must truly be
          // over the threshold — no margin, no false prunes.
          ASSERT_GT(expected[i], threshold)
              << "backend=" << kernels::BackendName(backend) << " m=" << m
              << " row=" << i;
        } else {
          ASSERT_EQ(got[i], expected[i])
              << "backend=" << kernels::BackendName(backend) << " m=" << m
              << " row=" << i;
        }
        if (backend == Backend::kScalar) {
          ASSERT_EQ(got[i] == kernels::kAbandoned, bool{scalar_prunes[i]})
              << "scalar prune set mismatch m=" << m << " row=" << i;
        }
      }
    }
  }
}

TEST(AdcKernelsTest, InfiniteThresholdNeverPrunes) {
  Rng rng(17);
  const size_t m = 8, ksub = 32, count = 19;
  const std::vector<double> table = RandomTable(rng, m * ksub);
  const std::vector<uint8_t> codes = RandomCodes(rng, count * m, ksub);
  const std::vector<double> expected =
      Reference(codes.data(), count, m, ksub, table.data());
  for (Backend backend : SupportedBackends()) {
    BackendGuard guard(backend);
    std::vector<double> got(count, -1.0);
    kernels::AdcScanAbandon(codes.data(), count, m, ksub, table.data(),
                            std::numeric_limits<double>::infinity(),
                            got.data());
    for (size_t i = 0; i < count; ++i) ASSERT_EQ(got[i], expected[i]);
  }
}

}  // namespace
}  // namespace qvt

#include "core/result_set.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/kernels.h"
#include "util/random.h"

namespace qvt {
namespace {

TEST(KnnResultSetTest, FillsUpToK) {
  KnnResultSet set(3);
  EXPECT_FALSE(set.full());
  EXPECT_EQ(set.KthDistance(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(set.Insert(1, 5.0));
  EXPECT_TRUE(set.Insert(2, 1.0));
  EXPECT_TRUE(set.Insert(3, 3.0));
  EXPECT_TRUE(set.full());
  EXPECT_DOUBLE_EQ(set.KthDistance(), 5.0);
}

TEST(KnnResultSetTest, EvictsWorst) {
  KnnResultSet set(2);
  set.Insert(1, 5.0);
  set.Insert(2, 3.0);
  EXPECT_FALSE(set.Insert(3, 9.0));  // worse than kth
  EXPECT_TRUE(set.Insert(4, 1.0));   // evicts id 1
  const auto sorted = set.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 4u);
  EXPECT_EQ(sorted[1].id, 2u);
  EXPECT_DOUBLE_EQ(set.KthDistance(), 3.0);
}

TEST(KnnResultSetTest, EqualDistanceTiesBreakBySmallerId) {
  KnnResultSet set(1);
  set.Insert(5, 2.0);
  // Larger id at the same distance loses; smaller id wins.
  EXPECT_FALSE(set.Insert(9, 2.0));
  EXPECT_EQ(set.Sorted()[0].id, 5u);
  EXPECT_TRUE(set.Insert(1, 2.0));
  EXPECT_EQ(set.Sorted()[0].id, 1u);
  EXPECT_DOUBLE_EQ(set.KthDistance(), 2.0);
}

TEST(KnnResultSetTest, TiedSetIndependentOfInsertionOrder) {
  // Five candidates at the same distance, k = 3: whatever the offer order,
  // the kept set must be the three smallest ids — the determinism the
  // threaded and serial search paths rely on at distance ties.
  const DescriptorId ids[] = {40, 10, 30, 50, 20};
  std::vector<DescriptorId> order(std::begin(ids), std::end(ids));
  std::sort(order.begin(), order.end());
  do {
    KnnResultSet set(3);
    for (const DescriptorId id : order) set.Insert(id, 7.5);
    const auto sorted = set.Sorted();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].id, 10u);
    EXPECT_EQ(sorted[1].id, 20u);
    EXPECT_EQ(sorted[2].id, 30u);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(KnnResultSetTest, SortedIsAscendingAndStable) {
  KnnResultSet set(5);
  set.Insert(10, 3.0);
  set.Insert(11, 1.0);
  set.Insert(12, 2.0);
  const auto sorted = set.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 11u);
  EXPECT_EQ(sorted[1].id, 12u);
  EXPECT_EQ(sorted[2].id, 10u);
  // Sorted() leaves the set intact.
  EXPECT_EQ(set.size(), 3u);
}

TEST(KnnResultSetTest, ClearEmpties) {
  KnnResultSet set(2);
  set.Insert(1, 1.0);
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.full());
}

class ResultSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResultSetPropertyTest, MatchesSortOfAllCandidates) {
  Rng rng(GetParam());
  const size_t k = 10;
  KnnResultSet set(k);
  std::vector<Neighbor> all;
  for (DescriptorId id = 0; id < 500; ++id) {
    const double dist = rng.UniformDouble(0, 100);
    set.Insert(id, dist);
    all.push_back({id, dist});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  });
  const auto result = set.Sorted();
  ASSERT_EQ(result.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_DOUBLE_EQ(result[i].distance, all[i].distance) << "rank " << i;
    EXPECT_EQ(result[i].id, all[i].id);
  }
  EXPECT_DOUBLE_EQ(set.KthDistance(), all[k - 1].distance);
}

TEST(KnnResultSetTest, ExcludedIdIsRefusedOnlyWhenItWouldEnter) {
  const std::vector<DescriptorId> excluded = {2, 7};
  KnnResultSet set(2, excluded);
  EXPECT_TRUE(set.Insert(1, 4.0));
  EXPECT_FALSE(set.Insert(2, 1.0));  // would enter: refused
  EXPECT_EQ(set.refused(), 1u);
  EXPECT_TRUE(set.Insert(3, 5.0));
  // Full with k-th 5.0: a dead row that does not beat it is not counted.
  EXPECT_FALSE(set.Insert(7, 6.0));
  EXPECT_EQ(set.refused(), 1u);
  EXPECT_FALSE(set.Insert(7, 0.5));
  EXPECT_EQ(set.refused(), 2u);
  const auto sorted = set.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 1u);
  EXPECT_EQ(sorted[1].id, 3u);
  set.Clear();
  EXPECT_EQ(set.refused(), 0u);
}

TEST(KnnResultSetTest, KeyedInsertChecksTheGivenId) {
  // The pq filter keys by code row and filters by the row's id.
  const std::vector<DescriptorId> excluded = {100};
  KnnResultSet set(3, excluded);
  EXPECT_FALSE(set.Insert(/*key=*/0, 1.0, /*id=*/100));
  EXPECT_TRUE(set.Insert(/*key=*/100, 2.0, /*id=*/5));
  EXPECT_EQ(set.refused(), 1u);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.Sorted()[0].id, 100u);
}

// Inserting a stream with `excluded` keeps exactly what filtering the
// stream first and inserting the rest keeps; the refusals are the excluded
// offers that beat the k-th at the time; an empty span changes nothing.
// Distances come from a small grid and ids repeat, so ties are common.
TEST_P(ResultSetPropertyTest, ExcludedEqualsFilterThenInsert) {
  Rng rng(GetParam());
  for (const size_t k : {1, 5, 20}) {
    std::vector<DescriptorId> excluded;
    for (DescriptorId id = 0; id < 400; ++id) {
      if (rng.Uniform(4) == 0) excluded.push_back(id);
    }
    KnnResultSet filtered(k, excluded);
    KnnResultSet reference(k);
    KnnResultSet plain(k);
    KnnResultSet empty_span(k, {});
    uint64_t expected_refusals = 0;
    for (size_t i = 0; i < 600; ++i) {
      const auto id = static_cast<DescriptorId>(rng.Uniform(400));
      const auto distance = static_cast<double>(rng.Uniform(50));
      const bool dead =
          std::binary_search(excluded.begin(), excluded.end(), id);
      if (dead) {
        bool beats = !filtered.full();
        if (!beats) {
          const auto kept = filtered.Sorted();
          beats = distance < kept.back().distance ||
                  (distance == kept.back().distance && id < kept.back().id);
        }
        expected_refusals += beats ? 1 : 0;
        EXPECT_FALSE(filtered.Insert(id, distance));
      } else {
        EXPECT_EQ(filtered.Insert(id, distance),
                  reference.Insert(id, distance));
      }
      EXPECT_EQ(plain.Insert(id, distance), empty_span.Insert(id, distance));
    }
    const auto got = filtered.Sorted();
    const auto want = reference.Sorted();
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].id, want[r].id) << "k=" << k << " rank " << r;
      EXPECT_EQ(got[r].distance, want[r].distance);
    }
    EXPECT_EQ(filtered.refused(), expected_refusals) << "k=" << k;
    const auto plain_sorted = plain.Sorted();
    const auto empty_sorted = empty_span.Sorted();
    ASSERT_EQ(plain_sorted.size(), empty_sorted.size());
    for (size_t r = 0; r < plain_sorted.size(); ++r) {
      EXPECT_EQ(plain_sorted[r].id, empty_sorted[r].id);
      EXPECT_EQ(plain_sorted[r].distance, empty_sorted[r].distance);
    }
    EXPECT_EQ(empty_span.refused(), 0u);
  }
}

// AdmitRows passes over a group of rows that all exceed the limit with one
// compare; the set it leaves must be the one offering every row in order
// leaves — ids, distance bits and refusals — with and without an excluded
// list and a bound, on every backend. Blocks mix kAbandoned rows (only
// while the limit is finite, as the kernels produce them), rows exactly at
// AbandonThreshold of the limit, rows just under it, rows close enough to
// enter and lower the limit in the middle of a group, and counts that are
// not a multiple of any group size.
TEST(AdmitRowsTest, EqualsOfferingEveryRowInOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const kernels::Backend backend : kernels::SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    Rng rng(13);
    for (int trial = 0; trial < 400; ++trial) {
      const std::string label = std::string(kernels::BackendName(backend)) +
                                " trial " + std::to_string(trial);
      const size_t k = 1 + rng.Uniform(6);
      std::vector<DescriptorId> excluded;
      if (trial % 2 == 1) {
        for (DescriptorId id = 0; id < 40; ++id) {
          if (rng.Uniform(3) == 0) excluded.push_back(id);
        }
      }
      const double bound = trial % 3 == 0 ? rng.UniformDouble(3.0, 6.0) : inf;
      KnnResultSet set(k, excluded, bound);
      const size_t prefill = rng.Uniform(k + 2);
      for (size_t j = 0; j < prefill; ++j) {
        set.Insert(static_cast<DescriptorId>(1000 + j),
                   rng.UniformDouble(2.0, 8.0));
      }
      KnnResultSet reference = set;

      const size_t count = 1 + rng.Uniform(23);
      const double threshold = kernels::AbandonThreshold(set.KthDistance());
      const bool finite = threshold < inf;
      std::vector<double> squared(count);
      for (double& x : squared) {
        switch (rng.Uniform(6)) {
          case 0:
            x = finite ? kernels::kAbandoned : rng.UniformDouble(0.0, 100.0);
            break;
          case 1:
            x = finite ? threshold : rng.UniformDouble(0.0, 100.0);
            break;
          case 2:
            x = finite ? threshold * (1.0 - 1e-9) : rng.UniformDouble(0, 9);
            break;
          case 3:
            x = rng.UniformDouble(0.0, 9.0);
            break;
          default:
            x = rng.UniformDouble(0.0, 100.0);
            break;
        }
      }
      AdmitRows(squared.data(), count, set, [&](size_t i, double distance) {
        return set.Insert(static_cast<DescriptorId>(i), distance);
      });
      for (size_t i = 0; i < count; ++i) {
        reference.Insert(static_cast<DescriptorId>(i), std::sqrt(squared[i]));
      }

      const auto got = set.Sorted();
      const auto want = reference.Sorted();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].id, want[r].id) << label << " rank " << r;
        EXPECT_EQ(std::memcmp(&got[r].distance, &want[r].distance,
                              sizeof(double)),
                  0)
            << label << " rank " << r;
      }
      EXPECT_EQ(set.refused(), reference.refused()) << label;
    }
  }
  kernels::ResetBackendForTesting();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultSetPropertyTest,
                         ::testing::Values(1, 7, 42, 1000));

}  // namespace
}  // namespace qvt

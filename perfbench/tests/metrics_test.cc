// Tests of the benchmark's own computations: the QVT_* guard, image
// voting and image_top1, the percentile convention, failure accounting,
// the answer checks and the result line.
#include "metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batch_searcher.h"
#include "util/stats.h"

namespace perfbench {
namespace {

TEST(QvtGuardTest, FindsEveryLibraryOverride) {
  const char* env[] = {"PATH=/usr/bin",
                       "QVT_SHARED_SCAN=0",
                       "QVT_MMAP=0",
                       "QVT_PREFETCH_DEPTH=4",
                       "QVT_SIMD=off",
                       "QVT_BUILD_THREADS=1",
                       "QVT_TINY=1",
                       "HOME=/home/user",
                       nullptr};
  const std::vector<std::string> want = {
      "QVT_BUILD_THREADS", "QVT_MMAP", "QVT_PREFETCH_DEPTH",
      "QVT_SHARED_SCAN",   "QVT_SIMD", "QVT_TINY"};
  EXPECT_EQ(QvtOverrides(env), want);
}

TEST(QvtGuardTest, EmptyValueStillCountsAndOtherPrefixesDoNot) {
  const char* env[] = {"QVT_SIMD=", "XQVT_SIMD=off", "qvt_simd=off",
                       "QVT=1", nullptr};
  EXPECT_EQ(QvtOverrides(env), std::vector<std::string>{"QVT_SIMD"});
  const char* clean[] = {"PATH=/bin", nullptr};
  EXPECT_TRUE(QvtOverrides(clean).empty());
  EXPECT_TRUE(QvtOverrides(nullptr).empty());
}

qvt::MethodResult Answer(std::vector<qvt::DescriptorId> ids) {
  qvt::MethodResult result;
  double d = 0.0;
  for (const qvt::DescriptorId id : ids) result.neighbors.push_back({id, d++});
  return result;
}

TEST(TopImageTest, MostVotesAcrossAllAnswersWins) {
  // Descriptor id -> image: 0,1 -> image 7; 2,3,4 -> image 3; 5 -> image 9.
  const std::vector<qvt::ImageId> image_of = {7, 7, 3, 3, 3, 9};
  const std::vector<qvt::MethodResult> answers = {Answer({0, 2, 5}),
                                                  Answer({1, 3}),
                                                  Answer({4, 2})};
  qvt::ImageId top = 0;
  ASSERT_TRUE(TopImage(answers, image_of, &top));
  EXPECT_EQ(top, 3u);  // image 3: 4 votes, image 7: 2, image 9: 1
}

TEST(TopImageTest, TieGoesToTheSmallerImageId) {
  const std::vector<qvt::ImageId> image_of = {7, 7, 3, 3};
  const std::vector<qvt::MethodResult> answers = {Answer({0, 2}),
                                                  Answer({1, 3})};
  qvt::ImageId top = 0;
  ASSERT_TRUE(TopImage(answers, image_of, &top));
  EXPECT_EQ(top, 3u);
}

TEST(TopImageTest, NoVotesWhenNoNeighborMapsToAnImage) {
  const std::vector<qvt::ImageId> image_of = {1};
  const std::vector<qvt::MethodResult> answers = {Answer({5, 6}), Answer({})};
  qvt::ImageId top = 42;
  EXPECT_FALSE(TopImage(answers, image_of, &top));
  EXPECT_EQ(top, 42u);
}

TEST(LatencySummaryTest, MatchesTheLibraryPercentileConvention) {
  std::vector<int64_t> nanos;
  qvt::SampleStats stats;
  for (int64_t i = 1; i <= 200; ++i) {
    const int64_t ns = 1'000'000 + (i * 7919) % 200 * 10'000;
    nanos.push_back(ns);
    stats.Add(static_cast<double>(ns));
  }
  const LatencySummary s = SummarizeLatencies(nanos);
  EXPECT_DOUBLE_EQ(s.p50_ms, std::llround(stats.Percentile(50)) * 1e-6);
  EXPECT_DOUBLE_EQ(s.p95_ms, std::llround(stats.Percentile(95)) * 1e-6);
}

TEST(LatencySummaryTest, InterpolatesLinearlyBetweenRanks) {
  // Ranks 0..3 hold 1, 2, 3, 4 ms; p50 sits at rank 1.5, p95 at rank 2.85.
  const std::vector<int64_t> nanos = {4'000'000, 1'000'000, 3'000'000,
                                      2'000'000};
  const LatencySummary s = SummarizeLatencies(nanos);
  EXPECT_DOUBLE_EQ(s.p50_ms, 2.5);
  EXPECT_DOUBLE_EQ(s.p95_ms, 3.85);
}

TEST(LatencySummaryTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesForTail(95.0, 10), 200u);
  EXPECT_EQ(MinSamplesForTail(99.0, 10), 1000u);
  EXPECT_EQ(MinSamplesForTail(50.0, 10), 20u);
}

TEST(FailureLedgerTest, CountsAttemptsFailuresAndRatio) {
  FailureLedger ledger;
  EXPECT_EQ(ledger.ratio(), 0.0);
  for (int i = 0; i < 8; ++i) ledger.Record("");
  ledger.Record("answer differs");
  ledger.Record("request failed: IO error");
  EXPECT_EQ(ledger.attempted(), 10u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_DOUBLE_EQ(ledger.ratio(), 0.2);
  ASSERT_EQ(ledger.messages().size(), 2u);
  EXPECT_EQ(ledger.messages()[0], "answer differs");
}

TEST(FailureLedgerTest, KeepsOnlyTheFirstMessages) {
  FailureLedger ledger;
  for (int i = 0; i < 100; ++i) ledger.Record("bad " + std::to_string(i));
  EXPECT_EQ(ledger.failed(), 100u);
  EXPECT_EQ(ledger.messages().size(), 8u);
  EXPECT_EQ(ledger.messages().front(), "bad 0");
}

qvt::Collection TinyCollection() {
  qvt::Collection c(2);
  const float rows[4][2] = {{0, 0}, {3, 4}, {1, 0}, {0, 1}};
  for (qvt::DescriptorId id = 0; id < 4; ++id) c.Append(id, rows[id], 0);
  return c;
}

TEST(CheckApproximateTest, AcceptsOrderedAnswersWithTrueDistances) {
  const qvt::Collection c = TinyCollection();
  const float query[2] = {0, 0};
  const std::vector<qvt::Neighbor> answer = {{0, 0.0}, {2, 1.0}, {3, 1.0},
                                             {1, 5.0}};
  EXPECT_EQ(CheckApproximate(answer, query, c), "");
}

TEST(CheckApproximateTest, RejectsWrongDistanceOrderAndUnknownIds) {
  const qvt::Collection c = TinyCollection();
  const float query[2] = {0, 0};
  const std::vector<qvt::Neighbor> wrong_distance = {{2, 1.5}};
  EXPECT_NE(CheckApproximate(wrong_distance, query, c), "");
  const std::vector<qvt::Neighbor> tie_out_of_order = {{3, 1.0}, {2, 1.0}};
  EXPECT_NE(CheckApproximate(tie_out_of_order, query, c), "");
  const std::vector<qvt::Neighbor> descending = {{1, 5.0}, {0, 0.0}};
  EXPECT_NE(CheckApproximate(descending, query, c), "");
  const std::vector<qvt::Neighbor> unknown = {{9, 1.0}};
  EXPECT_NE(CheckApproximate(unknown, query, c), "");
}

TEST(CheckExactTest, NeedsSameAnswerAndExactVerdict) {
  qvt::MethodResult got;
  got.neighbors = {{0, 0.0}, {2, 1.0}};
  got.telemetry.exact = true;
  const std::vector<qvt::Neighbor> truth = {{0, 0.0}, {2, 1.0}};
  EXPECT_EQ(CheckExact(got, truth), "");
  got.telemetry.exact = false;
  EXPECT_NE(CheckExact(got, truth), "");
  got.telemetry.exact = true;
  got.neighbors[1].distance = std::nextafter(1.0, 2.0);
  EXPECT_NE(CheckExact(got, truth), "");
}

TEST(RecallTest, SharesOfTrueIdsFound) {
  const std::vector<qvt::Neighbor> truth = {{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const std::vector<qvt::Neighbor> answer = {{4, 0}, {9, 0}, {1, 0}, {8, 0}};
  EXPECT_DOUBLE_EQ(Recall(answer, truth), 0.5);
  EXPECT_DOUBLE_EQ(Recall(truth, truth), 1.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(ResultJsonTest, HasExactlyTheFourKeys) {
  const std::vector<Metric> metrics = {{"latency_ms", "ms", 1.25},
                                       {"setup_s", "s", 0.5}};
  EXPECT_EQ(ResultJson(true, 12, 0, metrics),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench

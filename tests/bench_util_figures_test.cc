#include "bench_util/figures.h"

#include <sstream>

#include <gtest/gtest.h>

namespace qvt {
namespace {

QualityCurves MakeCurves(size_t k, double chunk_step, double second_step,
                         size_t reached_until = SIZE_MAX) {
  QualityCurves curves;
  curves.k = k;
  for (size_t n = 1; n <= k; ++n) {
    const bool reached = n <= reached_until;
    curves.queries_reaching.push_back(reached ? 10 : 0);
    curves.mean_chunks_at.push_back(reached ? chunk_step * n : 0.0);
    curves.mean_model_seconds_at.push_back(reached ? second_step * n : 0.0);
    curves.mean_wall_seconds_at.push_back(reached ? second_step * n / 10
                                                  : 0.0);
    curves.skip_mean_chunks_at.push_back(reached ? chunk_step * n / 4 : 0.0);
    curves.skip_mean_model_seconds_at.push_back(
        reached ? second_step * n / 4 : 0.0);
  }
  return curves;
}

TEST(FiguresTest, PrintsOneRowPerNeighborCount) {
  std::ostringstream os;
  PrintNeighborsFigure(os, "test figure", EffortMetric::kChunksRead,
                       {{"alpha", MakeCurves(5, 1.0, 0.1)},
                        {"beta", MakeCurves(5, 2.0, 0.2)}});
  const std::string out = os.str();
  EXPECT_NE(out.find("test figure"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  // 5 data rows.
  EXPECT_NE(out.find("\n5 "), std::string::npos);
  // alpha's chunks at n=5 is 5.00, beta's 10.00.
  EXPECT_NE(out.find("5.00"), std::string::npos);
  EXPECT_NE(out.find("10.00"), std::string::npos);
}

TEST(FiguresTest, UnreachedCountsPrintDash) {
  std::ostringstream os;
  PrintNeighborsFigure(os, "partial", EffortMetric::kModelSeconds,
                       {{"s", MakeCurves(4, 1.0, 0.5, /*reached_until=*/2)}});
  const std::string out = os.str();
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(FiguresTest, MetricSelectsColumn) {
  std::ostringstream chunks_os, seconds_os, wall_os;
  const std::vector<LabeledCurves> series = {{"s", MakeCurves(3, 7.0, 0.25)}};
  PrintNeighborsFigure(chunks_os, "c", EffortMetric::kChunksRead, series);
  PrintNeighborsFigure(seconds_os, "s", EffortMetric::kModelSeconds, series);
  PrintNeighborsFigure(wall_os, "w", EffortMetric::kWallSeconds, series);
  EXPECT_NE(chunks_os.str().find("21.00"), std::string::npos);   // 7*3
  EXPECT_NE(seconds_os.str().find("0.750"), std::string::npos);  // 0.25*3
  EXPECT_NE(wall_os.str().find("0.075"), std::string::npos);
  // The chunk and cost-model figures carry the skip run beside the paper's
  // rule; the wall clock has no second column.
  EXPECT_NE(chunks_os.str().find("s skip"), std::string::npos);
  EXPECT_NE(chunks_os.str().find("5.25"), std::string::npos);    // 21/4
  EXPECT_NE(seconds_os.str().find("0.188"), std::string::npos);  // 0.75/4
  EXPECT_EQ(wall_os.str().find("skip"), std::string::npos);
}

TEST(FiguresTest, SecondsFormatsMilliseconds) {
  EXPECT_EQ(Seconds(1.2345), "1.234");
  EXPECT_EQ(Seconds(0.0), "0.000");
}

TEST(FiguresTest, EmptySeriesPrintsHeaderOnly) {
  std::ostringstream os;
  PrintNeighborsFigure(os, "empty", EffortMetric::kChunksRead, {});
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace qvt

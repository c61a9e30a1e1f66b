// Ablation A1 (DESIGN.md): stop-rule comparison backing §5.7 lesson 2 —
// "elapsed time is a more natural stop rule than the number of chunks read,
// as with the latter variably sized chunks may lead to variable query
// execution time".
//
// For the BAG/SMALL and SR/SMALL indexes and the DQ workload, we sweep both
// stop rules and report, per budget: the mean precision@30 achieved and the
// mean and spread (p95) of the modeled query time. The k-chunks rule on the
// skewed BAG index shows large time variance at equal precision; the
// time-budget rule pins execution time by construction.

#include <iostream>

#include "bench/bench_common.h"
#include "core/evaluation.h"
#include "util/stats.h"
#include "util/table.h"

namespace qvt {
namespace {

struct SweepPoint {
  std::string budget;
  double precision = 0.0;
  double mean_seconds = 0.0;
  double p95_seconds = 0.0;
};

SweepPoint RunStop(const IndexSuite& suite, const IndexVariant& variant,
                   const StopRule& stop, const std::string& label) {
  const DiskCostModel cost_model(suite.config().cost_model);
  Searcher searcher(&variant.index, cost_model);
  const Workload& workload = suite.dq();
  const GroundTruth& truth = suite.truth(variant.size_class, "DQ");

  SweepPoint point;
  point.budget = label;
  SampleStats seconds;
  for (size_t q = 0; q < workload.num_queries(); ++q) {
    auto result = searcher.Search(workload.Query(q), suite.config().k, stop);
    QVT_CHECK_OK(result.status());
    point.precision += PrecisionAtK(result->neighbors, truth.TruthFor(q),
                                    suite.config().k);
    seconds.Add(static_cast<double>(result->telemetry.model_micros) * 1e-6);
  }
  point.precision /= static_cast<double>(workload.num_queries());
  point.mean_seconds = seconds.Mean();
  point.p95_seconds = seconds.Percentile(95);
  return point;
}

void RunForVariant(const IndexSuite& suite, Strategy strategy) {
  const IndexVariant& v = suite.variant(strategy, SizeClass::kSmall);
  std::cout << "\n--- " << v.Label() << ", DQ workload ---\n";

  TablePrinter table({"stop rule", "budget", "precision@k", "mean time (s)",
                      "p95 time (s)"});
  for (size_t chunks : {1u, 2u, 5u, 10u, 20u}) {
    const SweepPoint p = RunStop(suite, v, StopRule::MaxChunks(chunks),
                                 std::to_string(chunks));
    table.AddRow({"k-chunks", p.budget, TablePrinter::Num(p.precision, 3),
                  Seconds(p.mean_seconds), Seconds(p.p95_seconds)});
  }
  for (int64_t ms : {25, 50, 100, 250, 1000}) {
    const SweepPoint p = RunStop(suite, v, StopRule::TimeBudget(ms * 1000),
                                 std::to_string(ms) + "ms");
    table.AddRow({"time", p.budget, TablePrinter::Num(p.precision, 3),
                  Seconds(p.mean_seconds), Seconds(p.p95_seconds)});
  }
  for (double epsilon : {0.1, 0.5, 1.0}) {
    const SweepPoint p =
        RunStop(suite, v, StopRule::EpsilonApproximate(epsilon),
                TablePrinter::Num(epsilon, 1));
    table.AddRow({"epsilon", p.budget, TablePrinter::Num(p.precision, 3),
                  Seconds(p.mean_seconds), Seconds(p.p95_seconds)});
  }
  const SweepPoint exact = RunStop(suite, v, StopRule::Exact(), "-");
  table.AddRow({"exact", exact.budget, TablePrinter::Num(exact.precision, 3),
                Seconds(exact.mean_seconds), Seconds(exact.p95_seconds)});
  table.Print(std::cout);
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) {
  using namespace qvt;
  const auto suite = bench::LoadSuite(bench::ParseConfig(argc, argv));
  bench::PrintBanner("Ablation: stop rules (k-chunks vs time budget vs exact)",
                     *suite);
  RunForVariant(*suite, Strategy::kBag);
  RunForVariant(*suite, Strategy::kSrTree);
  return 0;
}

// Reproduces Table 2 of the paper: time to completion (seconds) of the
// exact search — run until no unread chunk can contain a closer neighbor —
// for the six chunk indexes and both workloads, on the 2005-hardware cost
// model.
//
// Expected shape (§5.5): BAG completes FASTER than the SR-tree at every
// size (its dense chunks let the stop rule prune earlier), completion time
// drops as chunks get larger, and DQ completes a bit faster than SQ. The
// paper's range: 16.7-45.0 seconds; ours scales down with the collection.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace qvt;
  const auto suite = bench::LoadSuite(bench::ParseConfig(argc, argv));
  bench::PrintBanner("Table 2: time to completion (seconds)", *suite);

  const auto dq = bench::RunAllVariants(*suite, "DQ");
  const auto sq = bench::RunAllVariants(*suite, "SQ");
  // RunAllVariants orders: BAG S/M/L then SR S/M/L. Each table gives the
  // paper's rule, which reads every rank it reaches, then the same columns
  // for what the run actually read (" skip": ranks whose chunk bound rules
  // them out are passed over unread; DESIGN.md "Skip, don't read").
  const std::vector<std::string> columns = {"BAG DQ", "BAG SQ", "SR DQ",
                                            "SR SQ"};
  const auto print = [&](double QualityCurves::*paper,
                         double QualityCurves::*skip, auto format) {
    std::vector<std::string> headers{"Chunk sizes"};
    headers.insert(headers.end(), columns.begin(), columns.end());
    for (const std::string& column : columns) {
      headers.push_back(column + " skip");
    }
    TablePrinter table(std::move(headers));
    for (size_t c = 0; c < 3; ++c) {
      const QualityCurves* cells[] = {&dq[c].curves, &sq[c].curves,
                                      &dq[3 + c].curves, &sq[3 + c].curves};
      std::vector<std::string> row{SizeClassName(kAllSizeClasses[c])};
      for (const QualityCurves* curves : cells) {
        row.push_back(format(curves->*paper));
      }
      for (const QualityCurves* curves : cells) {
        row.push_back(format(curves->*skip));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
  };
  print(&QualityCurves::mean_completion_model_seconds,
        &QualityCurves::skip_mean_completion_model_seconds, Seconds);

  std::cout << "\nChunks read to completion (supporting metric):\n";
  print(&QualityCurves::mean_chunks_to_completion,
        &QualityCurves::skip_mean_chunks_to_completion,
        [](double n) { return TablePrinter::Num(n, 1); });
  return 0;
}

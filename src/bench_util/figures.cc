#include "bench_util/figures.h"

#include <cstdio>

#include "util/table.h"

namespace qvt {

std::string Seconds(double s) { return TablePrinter::Num(s, 3); }

void PrintNeighborsFigure(std::ostream& os, const std::string& title,
                          EffortMetric metric,
                          const std::vector<LabeledCurves>& series) {
  os << "\n=== " << title << " ===\n";
  switch (metric) {
    case EffortMetric::kChunksRead:
      os << "(mean chunks read until n true neighbors found)\n";
      break;
    case EffortMetric::kModelSeconds:
      os << "(mean modeled elapsed seconds until n true neighbors found; "
            "2005-hardware cost model)\n";
      break;
    case EffortMetric::kWallSeconds:
      os << "(mean host wall-clock seconds until n true neighbors found)\n";
      break;
  }

  // The paper's chunk and cost-model axes get a second column per series,
  // "<label> skip": what the run actually read or spent. The wall clock
  // only exists for the run itself.
  const bool skip_columns = metric != EffortMetric::kWallSeconds;
  std::vector<std::string> headers{"neighbors"};
  for (const auto& s : series) headers.push_back(s.label);
  if (skip_columns) {
    for (const auto& s : series) headers.push_back(s.label + " skip");
  }
  TablePrinter table(std::move(headers));

  const int precision = metric == EffortMetric::kChunksRead ? 2 : 3;
  const size_t k = series.empty() ? 0 : series.front().curves.k;
  for (size_t n = 1; n <= k; ++n) {
    std::vector<std::string> row{std::to_string(n)};
    const auto add_cell = [&](const QualityCurves& c,
                              const std::vector<double>& values) {
      row.push_back(n > c.k || c.queries_reaching[n - 1] == 0
                        ? "-"
                        : TablePrinter::Num(values[n - 1], precision));
    };
    for (const auto& s : series) {
      const QualityCurves& c = s.curves;
      switch (metric) {
        case EffortMetric::kChunksRead:
          add_cell(c, c.mean_chunks_at);
          break;
        case EffortMetric::kModelSeconds:
          add_cell(c, c.mean_model_seconds_at);
          break;
        case EffortMetric::kWallSeconds:
          add_cell(c, c.mean_wall_seconds_at);
          break;
      }
    }
    if (skip_columns) {
      for (const auto& s : series) {
        const QualityCurves& c = s.curves;
        add_cell(c, metric == EffortMetric::kChunksRead
                        ? c.skip_mean_chunks_at
                        : c.skip_mean_model_seconds_at);
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

void PrintTailTable(std::ostream& os, const std::string& title,
                    const std::vector<TailSeries>& series) {
  os << "\n=== " << title << " ===\n";
  for (const auto& s : series) {
    os << s.label << ": " << s.populations.ToString();
    if (s.population_bound > 0) {
      os << " (bound " << s.population_bound << ")";
    }
    os << "\n";
  }
  os << "(per chunk budget: recall and per-query latency percentiles; "
        "tail = p99/p50)\n";

  std::vector<std::string> headers{"budget"};
  for (const auto& s : series) {
    headers.push_back(s.label + " recall");
    headers.push_back(s.label + " model p50us");
    headers.push_back(s.label + " model p99us");
    headers.push_back(s.label + " tail");
  }
  TablePrinter table(std::move(headers));

  const size_t num_points = series.empty() ? 0 : series.front().points.size();
  for (size_t p = 0; p < num_points; ++p) {
    const size_t budget = series.front().points[p].max_chunks;
    std::vector<std::string> row{budget == 0 ? "exact"
                                             : std::to_string(budget)};
    for (const auto& s : series) {
      if (p >= s.points.size()) {
        row.insert(row.end(), 4, "-");
        continue;
      }
      const BatchRunReport& r = s.points[p].report;
      row.push_back(TablePrinter::Num(r.mean_final_precision, 3));
      row.push_back(std::to_string(r.model.p50));
      row.push_back(std::to_string(r.model.p99));
      row.push_back(TablePrinter::Num(r.model.TailRatio(), 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

void WriteTailJson(std::ostream& os, const std::vector<TailSeries>& series) {
  char buf[256];
  os << "{\n  \"series\": [\n";
  for (size_t i = 0; i < series.size(); ++i) {
    const TailSeries& s = series[i];
    const PopulationStats& pop = s.populations;
    os << "    {\n      \"label\": \"" << s.label << "\",\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"num_chunks\": %zu,\n"
                  "      \"population_min\": %llu,\n"
                  "      \"population_mean\": %.3f,\n"
                  "      \"population_p99\": %.3f,\n"
                  "      \"population_max\": %llu,\n"
                  "      \"imbalance\": %.4f,\n",
                  pop.num_chunks,
                  static_cast<unsigned long long>(pop.min), pop.mean, pop.p99,
                  static_cast<unsigned long long>(pop.max), pop.imbalance);
    os << buf;
    std::snprintf(buf, sizeof(buf), "      \"population_bound\": %zu,\n",
                  s.population_bound);
    os << buf;
    // The largest imbalance a bound-compliant index can show; series
    // without a bound report 0 (nothing to assert against).
    const double imbalance_bound =
        s.population_bound > 0 && pop.mean > 0.0
            ? static_cast<double>(s.population_bound) / pop.mean
            : 0.0;
    std::snprintf(buf, sizeof(buf), "      \"imbalance_bound\": %.4f,\n",
                  imbalance_bound);
    os << buf;
    os << "      \"points\": [\n";
    for (size_t p = 0; p < s.points.size(); ++p) {
      const TailPoint& point = s.points[p];
      const BatchRunReport& r = point.report;
      std::snprintf(
          buf, sizeof(buf),
          "        {\"max_chunks\": %zu, \"recall\": %.4f, "
          "\"mean_chunks_read\": %.3f, \"max_probe_rows\": %llu,",
          point.max_chunks, r.mean_final_precision, r.mean_chunks_read,
          static_cast<unsigned long long>(r.max_probe_rows));
      os << buf;
      std::snprintf(buf, sizeof(buf),
                    " \"wall_p50_micros\": %lld, \"wall_p95_micros\": %lld, "
                    "\"wall_p99_micros\": %lld, \"wall_tail_ratio\": %.3f,",
                    static_cast<long long>(r.wall.p50),
                    static_cast<long long>(r.wall.p95),
                    static_cast<long long>(r.wall.p99), r.wall.TailRatio());
      os << buf;
      std::snprintf(buf, sizeof(buf),
                    " \"model_p50_micros\": %lld, \"model_p95_micros\": %lld, "
                    "\"model_p99_micros\": %lld, \"model_tail_ratio\": %.3f}",
                    static_cast<long long>(r.model.p50),
                    static_cast<long long>(r.model.p95),
                    static_cast<long long>(r.model.p99),
                    r.model.TailRatio());
      os << buf << (p + 1 < s.points.size() ? ",\n" : "\n");
    }
    os << "      ]\n    }" << (i + 1 < series.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace qvt

#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "core/batch_searcher.h"
#include "geometry/kernels.h"
#include "util/stats.h"

namespace perfbench {

std::vector<std::string> QvtOverrides(const char* const* envp) {
  std::vector<std::string> names;
  for (; envp != nullptr && *envp != nullptr; ++envp) {
    const std::string_view entry(*envp);
    if (!entry.starts_with("QVT_")) continue;
    names.emplace_back(entry.substr(0, entry.find('=')));
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool TopImage(std::span<const qvt::MethodResult> answers,
              std::span<const qvt::ImageId> image_of, qvt::ImageId* top) {
  std::map<qvt::ImageId, size_t> votes;
  for (const qvt::MethodResult& answer : answers) {
    for (const qvt::Neighbor& n : answer.neighbors) {
      if (n.id < image_of.size()) ++votes[image_of[n.id]];
    }
  }
  size_t best = 0;
  for (const auto& [image, count] : votes) {
    // Ascending image order: a strict > keeps the smaller id on a tie.
    if (count > best) {
      best = count;
      *top = image;
    }
  }
  return best > 0;
}

LatencySummary SummarizeLatencies(std::span<const int64_t> nanos) {
  qvt::SampleStats stats;
  for (const int64_t ns : nanos) stats.Add(static_cast<double>(ns));
  const qvt::LatencyPercentiles p = qvt::LatencyPercentiles::FromStats(stats);
  LatencySummary out;
  out.p50_ms = static_cast<double>(p.p50) * 1e-6;
  out.p95_ms = static_cast<double>(p.p95) * 1e-6;
  return out;
}

size_t MinSamplesForTail(double p, size_t beyond) {
  // n * (1 - p/100) >= beyond, in integers to avoid rounding down.
  const double share = 1.0 - p / 100.0;
  return static_cast<size_t>(std::ceil(static_cast<double>(beyond) / share -
                                       1e-9));
}

void FailureLedger::Record(std::string_view problem) {
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (messages_.size() < kMaxMessages) messages_.emplace_back(problem);
}

double FailureLedger::ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::string CheckApproximate(std::span<const qvt::Neighbor> answer,
                             std::span<const float> query,
                             const qvt::Collection& collection) {
  for (size_t i = 0; i < answer.size(); ++i) {
    const qvt::Neighbor& n = answer[i];
    if (n.id >= collection.size() || collection.Id(n.id) != n.id) {
      return "neighbor id " + std::to_string(n.id) + " is not a stored row";
    }
    double squared = 0.0;
    qvt::kernels::BatchSquaredDistance(collection.Vector(n.id).data(), 1,
                                       collection.dim(), query, &squared);
    if (std::sqrt(squared) != n.distance) {
      return "distance of id " + std::to_string(n.id) +
             " differs from recomputed L2";
    }
    if (i > 0) {
      const qvt::Neighbor& prev = answer[i - 1];
      const bool ordered =
          prev.distance < n.distance ||
          (prev.distance == n.distance && prev.id < n.id);
      if (!ordered) return "answer not in ascending (distance, id) order";
    }
  }
  return "";
}

std::string CheckExact(const qvt::MethodResult& answer,
                       std::span<const qvt::Neighbor> truth) {
  if (!SameNeighbors(answer.neighbors, truth)) {
    return "exact-rule answer differs from ExactScan";
  }
  if (!answer.telemetry.exact) return "exact-rule answer not reported exact";
  return "";
}

bool SameNeighbors(std::span<const qvt::Neighbor> a,
                   std::span<const qvt::Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

double Recall(std::span<const qvt::Neighbor> answer,
              std::span<const qvt::Neighbor> truth) {
  if (truth.empty()) return 1.0;
  size_t found = 0;
  for (const qvt::Neighbor& t : truth) {
    for (const qvt::Neighbor& a : answer) {
      if (a.id == t.id) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       std::span<const Metric> metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/result_set.h"
#include "core/search_method.h"
#include "descriptor/collection.h"

// The benchmark's own computations, kept free of workload logic so the
// tests in perfbench/tests pin them directly: the QVT_* guard, image
// voting, the latency-percentile convention, failure accounting, answer
// checks and the result line.
namespace perfbench {

/// One reported metric: a name from BENCHMARK.json, its unit and value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Names of the environment entries ("NAME=value") that start with "QVT_".
/// The library reads such variables as overrides of its defaults (SIMD
/// backend, mmap, prefetch depth, shared scans, build threads, ...); the
/// benchmark passes every setting explicitly and refuses to run while any
/// of them is set, so an override can never change what is measured.
std::vector<std::string> QvtOverrides(const char* const* envp);

/// The image with the most votes when every neighbor of every answer votes
/// once for its source image; ties go to the smaller image id. Returns
/// false when no neighbor maps to an image. `image_of` maps a descriptor id
/// (its position in the generated collection) to its source image.
bool TopImage(std::span<const qvt::MethodResult> answers,
              std::span<const qvt::ImageId> image_of, qvt::ImageId* top);

/// p50 / p95 of a latency sample in milliseconds, through the library's
/// one percentile convention (SampleStats linear interpolation, via
/// LatencyPercentiles::FromStats on nanosecond samples).
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};
LatencySummary SummarizeLatencies(std::span<const int64_t> nanos);

/// Smallest sample count that leaves at least `beyond` samples above the
/// percentile `p` (in percent): the tail is reported only at a percentile
/// that has at least ten samples past it.
size_t MinSamplesForTail(double p, size_t beyond);

/// failed_ratio accounting: every operation the benchmark issues or checks
/// is one attempt; an attempt fails on a non-OK Status, an answer that
/// violates its check, or a false exactness verdict. The first few failure
/// messages are kept for the report.
class FailureLedger {
 public:
  /// Counts one attempted operation; `problem` empty means it succeeded.
  void Record(std::string_view problem);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kMaxMessages = 8;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Checks an approximate answer: ids are valid rows of `collection`, the
/// list is in ascending (distance, id) order with no repeated id, and each
/// distance equals the L2 distance recomputed from the stored row. Returns
/// an empty string when the answer passes, else what failed.
std::string CheckApproximate(std::span<const qvt::Neighbor> answer,
                             std::span<const float> query,
                             const qvt::Collection& collection);

/// Checks an exact-rule answer against the ExactScan reference: the same
/// ids and bit-identical distances, in order, with `exact` reported true.
std::string CheckExact(const qvt::MethodResult& answer,
                       std::span<const qvt::Neighbor> truth);

/// True when two answers are the same ids with bit-identical distances.
bool SameNeighbors(std::span<const qvt::Neighbor> a,
                   std::span<const qvt::Neighbor> b);

/// Share of `truth`'s ids that `answer` contains (recall@|truth|).
double Recall(std::span<const qvt::Neighbor> answer,
              std::span<const qvt::Neighbor> truth);

/// Median of a sample (mean of the middle two for even sizes); NaN when
/// empty, which the result check reports as a malformed metric.
double Median(std::vector<double> values);

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       std::span<const Metric> metrics);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_

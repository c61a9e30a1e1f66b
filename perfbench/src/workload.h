#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/search_method.h"
#include "metrics.h"
#include "storage/prefetcher.h"

// What a workload run is given and what it hands back, plus the settings
// every workload pins. The reasons for each pin are in perfbench/README.md.
namespace perfbench {

/// k of every search.
inline constexpr size_t kK = 10;
/// Threads of the library's build pool for index construction, on every
/// workload.
inline constexpr size_t kBuildThreads = 2;
/// Threads of the same pool while the benchmark computes its own ExactScan
/// ground truth, off the clock.
inline constexpr size_t kGroundTruthThreads = 4;
/// The highest latency percentile reported, and the samples it must leave
/// beyond it.
inline constexpr double kTailPercentile = 95.0;
inline constexpr size_t kSamplesBeyondTail = 10;

/// Read-ahead off: the prefetcher only pays on a cold page cache, and at its
/// default depth it makes warm-cache timings bimodal.
inline qvt::PrefetcherOptions PinnedPrefetch() {
  qvt::PrefetcherOptions options;
  options.depth = 0;
  options.io_threads = 2;
  options.pool_buffers = 0;
  return options;
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for index files; removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_out;
};

/// Settings a run resolved, printed with every run so a noisy run can be
/// told apart from a slow program.
struct ResolvedConfig {
  size_t workers = 1;
  double steal_share = 0.0;  ///< CPU steal share during the timed phase
};

struct RunReport {
  FailureLedger ledger;
  /// End-to-end metrics without --trace, per-layer metrics with it.
  std::vector<Metric> metrics;
  ResolvedConfig config;
};

RunReport RunStaticWorkload(const RunOptions& options);
RunReport RunIngestWorkload(const RunOptions& options);

/// Process CPU (user + sys) seconds so far.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMiB();

/// Aggregate CPU counters from /proc/stat, for the steal share of a phase.
struct CpuStat {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuStat Read();
  /// Steal ticks over all ticks between `before` and this snapshot.
  double StealShareSince(const CpuStat& before) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

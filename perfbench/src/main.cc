// perfbench: the end-to-end benchmark's one command (see README.md).
//
//   perfbench --workload image_approx|ingest_mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Prints the resolved configuration, every metric by name with its unit,
// and as its last line one JSON object with the keys correct, attempted,
// failed and metrics. Without --trace 1 the metrics are the end-to-end
// ones; with it, the per-layer ones. Exits non-zero on any failed
// operation or check, and refuses to run while a QVT_* override is set.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "geometry/kernels.h"
#include "metrics.h"
#include "util/parallel_for.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics and units of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"requests_per_s", "1/s"},     {"request_p50_ms", "ms"},
    {"request_p95_ms", "ms"},      {"cpu_ms_per_request", "ms"},
    {"recall_at_10", "ratio"},     {"image_top1", "ratio"},
    {"model_ms_per_request", "ms"}, {"insert_rows_per_s", "1/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"descriptor.generate_s", "s"},
    {"cluster.form_chunks_s", "s"},
    {"storage.index_build_s", "s"},
    {"core.searcher.plan_us_per_query", "us"},
    {"core.searcher.plan_share", "ratio"},
    {"storage.read_us_per_chunk", "us"},
    {"storage.chunks_per_query", "count"},
    {"storage.bytes_per_query", "B"},
    {"geometry.kernels.scan_us_per_query", "us"},
    {"geometry.kernels.rows_per_s", "1/s"},
    {"geometry.kernels.ceiling_rows_per_s", "1/s"},
    {"geometry.kernels.abandoned_ratio", "ratio"},
    {"core.result_set.inserts_per_query", "count"},
    {"core.result_set.insert_us_per_query", "us"},
    {"core.batch.replay_ratio", "ratio"},
    {"core.batch.coalescing", "ratio"},
    {"dynamic.insert_us_p50", "us"},
    {"dynamic.build_s_total", "s"},
    {"dynamic.flushes", "count"},
    {"dynamic.merges", "count"},
    {"dynamic.write_amp", "ratio"},
    {"dynamic.shards_per_query", "count"},
    {"dynamic.buffer_share", "ratio"},
    {"dynamic.tombstones_filtered_per_query", "count"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "image_approx|ingest_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n",
               problem);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool is_static = options.workload == "image_approx";
  if (!is_static && options.workload != "ingest_mixed") {
    return Usage("unknown --workload");
  }
  if (!have_seed || options.work_dir.empty()) {
    return Usage("--seed and --work-dir are required");
  }
  if (options.trace && options.trace_out.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }

  const std::vector<std::string> overrides = QvtOverrides(environ);
  if (!overrides.empty()) {
    std::string names;
    for (const std::string& name : overrides) names += " " + name;
    std::fprintf(stderr,
                 "perfbench: refusing to run with library overrides set:%s\n"
                 "The benchmark passes every setting explicitly; unset them.\n",
                 names.c_str());
    return 2;
  }

  qvt::SetBuildThreads(kBuildThreads);
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  const RunReport report = is_static ? RunStaticWorkload(options)
                                     : RunIngestWorkload(options);
  std::filesystem::remove_all(options.work_dir);

  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d simd=%s workers=%zu "
      "build_threads=%zu ground_truth_threads=%zu prefetch_depth=%zu "
      "open_mode=mmap nproc=%ld steal_share=%.4f\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      qvt::kernels::BackendName(qvt::kernels::ActiveBackend()),
      report.config.workers, kBuildThreads, kGroundTruthThreads,
      PinnedPrefetch().depth,
      sysconf(_SC_NPROCESSORS_ONLN), report.config.steal_share);

  // Every metric of the chosen list, in BENCHMARK.json order. A layer a
  // workload does not exercise reports 0 (see README.md).
  bool correct =
      report.ledger.failed() == 0 && report.ledger.attempted() > 0;
  std::vector<Metric> metrics;
  const auto specs = options.trace ? std::span<const MetricSpec>(kPerLayer)
                                   : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : report.metrics) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr && !options.trace) {
      std::printf("missing metric %s\n", spec.name);
      correct = false;
    }
    if (found != nullptr && (found->unit != spec.unit ||
                             !std::isfinite(found->value))) {
      std::printf("metric %s is malformed\n", spec.name);
      correct = false;
    }
    const double value = found != nullptr ? found->value : 0.0;
    metrics.push_back({spec.name, spec.unit, value});
    std::printf("%-40s %18.6f %s%s\n", spec.name, value, spec.unit,
                found == nullptr ? "  (layer not on this workload's path)"
                                 : "");
  }
  std::printf("%-40s %18.6f ratio  (%llu of %llu operations)\n",
              "failed_ratio", report.ledger.ratio(),
              static_cast<unsigned long long>(report.ledger.failed()),
              static_cast<unsigned long long>(report.ledger.attempted()));
  for (const std::string& message : report.ledger.messages()) {
    std::printf("failure: %s\n", message.c_str());
  }
  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(
                                              report.ledger.attempted(), 1),
                                 report.ledger.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

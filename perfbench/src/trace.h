#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around the calls it makes into each library layer;
// nothing inside the library is instrumented. They are written out once,
// when the run ends, and the per-layer metrics are derived from them.
namespace perfbench {

/// The layer call a span covers. Names follow the repo's modules.
enum class Layer : uint8_t {
  kGenerate,       ///< descriptor: GenerateCollection
  kFormChunks,     ///< cluster: SrTreeChunker::FormChunks
  kIndexBuild,     ///< storage: ChunkIndex::Build + Open
  kSearchAll,      ///< core.batch: BatchSearcher::SearchAll (one request)
  kReplayQuery,    ///< one replayed query, parent of the four below
  kRankChunks,     ///< core.searcher: Searcher::RankChunks
  kReadChunk,      ///< storage: ChunkIndex::ReadChunk
  kKernel,         ///< geometry.kernels: BatchSquaredDistanceAbandon
  kResultInsert,   ///< core.result_set: the KnnResultSet::Insert calls of
                   ///< one kernel block (count = calls)
  kInsert,         ///< dynamic: DynamicIndex::Insert
  kDelete,         ///< dynamic: DynamicIndex::Delete
  kNumLayers,
};

const char* LayerName(Layer layer);

/// One layer call. `request` is the parent request id (the setup
/// repetition for set-up layers); `count` is the work the call covered
/// (rows for a kernel block, Insert calls for a result-set span, 1 else).
struct Span {
  Layer layer;
  uint32_t request;
  uint32_t count;
  int64_t start_ns;
  int64_t end_ns;
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// A disabled tracer records nothing; Record is then a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void Record(Layer layer, uint32_t request, int64_t start_ns,
              int64_t end_ns, uint32_t count = 1) {
    if (enabled_) spans_.push_back({layer, request, count, start_ns, end_ns});
  }

  /// Per-layer sums over every recorded span.
  struct Totals {
    uint64_t spans = 0;
    uint64_t count = 0;
    int64_t nanos = 0;
  };
  Totals Sum(Layer layer) const;

  /// Durations in seconds of the spans of `layer`, in record order.
  std::vector<double> Seconds(Layer layer) const;

  /// Writes one tab-separated line per span: layer, request, count,
  /// start_ns, end_ns (start times relative to the first span).
  qvt::Status Write(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

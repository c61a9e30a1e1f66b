#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGenerate:
      return "descriptor.generate";
    case Layer::kFormChunks:
      return "cluster.form_chunks";
    case Layer::kIndexBuild:
      return "storage.index_build";
    case Layer::kSearchAll:
      return "core.batch.search_all";
    case Layer::kReplayQuery:
      return "replay.query";
    case Layer::kRankChunks:
      return "core.searcher.rank_chunks";
    case Layer::kReadChunk:
      return "storage.read_chunk";
    case Layer::kKernel:
      return "geometry.kernels.batch_abandon";
    case Layer::kResultInsert:
      return "core.result_set.insert";
    case Layer::kInsert:
      return "dynamic.insert";
    case Layer::kDelete:
      return "dynamic.delete";
    case Layer::kNumLayers:
      break;
  }
  return "unknown";
}

Tracer::Totals Tracer::Sum(Layer layer) const {
  Totals totals;
  for (const Span& s : spans_) {
    if (s.layer != layer) continue;
    ++totals.spans;
    totals.count += s.count;
    totals.nanos += s.end_ns - s.start_ns;
  }
  return totals;
}

std::vector<double> Tracer::Seconds(Layer layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

qvt::Status Tracer::Write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return qvt::Status::IoError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file.get(), "layer\trequest\tcount\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(file.get(), "%s\t%u\t%u\t%lld\t%lld\n", LayerName(s.layer),
                 s.request, s.count,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  if (std::fflush(file.get()) != 0) {
    return qvt::Status::IoError("short write to " + path);
  }
  return qvt::Status::OK();
}

}  // namespace perfbench

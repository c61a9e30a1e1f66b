// Test fixtures shared by the searcher, shared-scan and batch tests: the
// registry-built "chunked" method, and an independent rank-order reference
// for the §4.3 k-NN search that the executor's answers are checked against.

#ifndef QVT_TESTS_SEARCH_REFERENCE_H_
#define QVT_TESTS_SEARCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/search_method.h"
#include "core/searcher.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "storage/chunk_cache.h"
#include "storage/disk_cost_model.h"
#include "util/logging.h"

namespace qvt {

/// The registry's "chunked" method over `index`, Prepare()d.
inline std::unique_ptr<SearchMethod> MakeChunkedMethod(
    const ChunkIndex* index, ChunkCache* cache = nullptr,
    DiskCostModel cost_model = DiskCostModel()) {
  MethodContext context;
  context.index = index;
  context.cost_model = cost_model;
  context.cache = cache;
  auto method = MethodRegistry::Global().Create("chunked", context);
  QVT_CHECK_OK(method.status());
  QVT_CHECK_OK((*method)->Prepare());
  return std::move(method).value();
}

/// The queries of `spans` as a Workload, in order.
inline Workload ToWorkload(std::span<const std::span<const float>> spans) {
  Workload workload;
  if (!spans.empty()) workload.dim = spans.front().size();
  for (const std::span<const float> query : spans) {
    workload.queries.insert(workload.queries.end(), query.begin(), query.end());
  }
  return workload;
}

/// The chunked method over `searcher`, with SearchShared's `excluded` and
/// `bounds` fixed up front so tests can drive them through BatchSearcher's
/// slices and threads: every call carries `excluded`, and query i of
/// `workload` gets bounds[i] when `bounds` is non-empty. BatchSearcher hands
/// a method spans into the workload's storage, so a query's address names
/// its position. Search is SearchShared over the one query.
class FixedArgsChunkedMethod final : public SearchMethod {
 public:
  FixedArgsChunkedMethod(const Searcher* searcher, const Workload* workload,
                         std::vector<DescriptorId> excluded,
                         std::vector<double> bounds = {})
      : searcher_(searcher),
        workload_(workload),
        excluded_(std::move(excluded)),
        bounds_(std::move(bounds)) {}

  std::string_view name() const override { return "chunked-fixed-args"; }
  std::string Describe() const override { return std::string(name()); }
  Status Prepare() override { return Status::OK(); }
  bool SupportsSharedScan() const override { return true; }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> /*excluded*/) const override {
    QVT_ASSIGN_OR_RETURN(std::vector<MethodResult> results,
                         SearchShared({&query, 1}, k, stop, nullptr, {}, {}));
    return std::move(results.front());
  }

  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* stats,
      std::span<const DescriptorId> /*excluded*/,
      std::span<const double> /*bounds*/) const override {
    std::vector<double> bounds;
    if (!bounds_.empty()) {
      for (const std::span<const float> query : queries) {
        const auto offset = query.data() - workload_->queries.data();
        bounds.push_back(bounds_[static_cast<size_t>(offset) / workload_->dim]);
      }
    }
    return searcher_->SearchShared(queries, k, stop, stats, excluded_, bounds);
  }

 private:
  const Searcher* searcher_;
  const Workload* workload_;
  std::vector<DescriptorId> excluded_;
  std::vector<double> bounds_;
};

/// The §4.3 search written out as the paper states it, one public layer
/// call at a time and one query at a time: RankChunks, then ReadChunk of
/// each chunk in rank order, scanned by BatchSquaredDistanceAbandon into a
/// KnnResultSet, with every stop rule checked before the next read and the
/// DiskCostModel charged per chunk (no cache). `searcher` supplies only
/// RankChunks. Fills neighbors, chunks_read, descriptors_scanned,
/// model_micros and exact.
inline MethodResult RankOrderReference(const Searcher& searcher,
                                       const DiskCostModel& cost_model,
                                       std::span<const float> query, size_t k,
                                       const StopRule& stop) {
  constexpr size_t kBlock = 256;
  const ChunkIndex& index = *searcher.index();
  const size_t num_chunks = index.num_chunks();
  SearchScratch scratch;
  int64_t model_micros = searcher.RankChunks(query, scratch);

  MethodResult out;
  QueryTelemetry& t = out.telemetry;
  KnnResultSet result_set(k);
  std::vector<double> distances(kBlock);
  ChunkData data;
  size_t r = 0;
  for (; r < num_chunks; ++r) {
    if (stop.kind == StopRule::Kind::kMaxChunks &&
        t.chunks_read >= stop.max_chunks) {
      break;
    }
    if (stop.kind == StopRule::Kind::kTimeBudget &&
        model_micros >= stop.budget_micros) {
      break;
    }
    if (stop.kind == StopRule::Kind::kExact && result_set.full() &&
        scratch.suffix_min_bound[r] * (1.0 + stop.epsilon) >
            result_set.KthDistance()) {
      t.exact = stop.epsilon == 0.0;
      break;
    }
    const uint32_t chunk_id = scratch.rank_order[r];
    QVT_CHECK_OK(index.ReadChunk(chunk_id, &data));
    for (size_t b = 0; b < data.size(); b += kBlock) {
      const size_t bn = std::min(kBlock, data.size() - b);
      kernels::BatchSquaredDistanceAbandon(
          data.values.data() + b * data.dim, bn, data.dim, query,
          kernels::AbandonThreshold(result_set.KthDistance()),
          distances.data());
      for (size_t i = 0; i < bn; ++i) {
        if (distances[i] == kernels::kAbandoned) continue;
        result_set.Insert(data.ids[b + i], std::sqrt(distances[i]));
      }
    }
    const ChunkLocation& loc = index.location(chunk_id);
    ++t.chunks_read;
    t.descriptors_scanned += data.size();
    model_micros +=
        cost_model.ChunkTotalMicros(loc.num_pages, loc.num_descriptors);
  }
  if (stop.kind == StopRule::Kind::kExact && r == num_chunks) t.exact = true;
  out.neighbors = result_set.Sorted();
  t.model_micros = model_micros;
  return out;
}

/// Asserts `got` equals the reference answer: neighbor ids, the raw bits
/// of every distance, chunks and descriptors read, modeled time and the
/// exact verdict.
inline void ExpectMatchesReference(const MethodResult& got,
                                   const MethodResult& reference,
                                   const std::string& label) {
  const QueryTelemetry& a = got.telemetry;
  const QueryTelemetry& b = reference.telemetry;
  EXPECT_EQ(a.chunks_read, b.chunks_read) << label;
  EXPECT_EQ(a.descriptors_scanned, b.descriptors_scanned) << label;
  EXPECT_EQ(a.model_micros, b.model_micros) << label;
  EXPECT_EQ(a.exact, b.exact) << label;
  ASSERT_EQ(got.neighbors.size(), reference.neighbors.size()) << label;
  for (size_t i = 0; i < got.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].id, reference.neighbors[i].id)
        << label << " rank " << i;
    EXPECT_EQ(std::memcmp(&got.neighbors[i].distance,
                          &reference.neighbors[i].distance, sizeof(double)),
              0)
        << label << " rank " << i;
  }
}

}  // namespace qvt

#endif  // QVT_TESTS_SEARCH_REFERENCE_H_

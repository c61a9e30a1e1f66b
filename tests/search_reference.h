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
#include <vector>

#include <gtest/gtest.h>

#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/search_method.h"
#include "core/searcher.h"
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

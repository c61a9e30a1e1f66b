// Test fixtures shared by the searcher, shared-scan and batch tests: the
// registry-built "chunked" method, and an independent rank-order reference
// for the §4.3 k-NN search that the executor's answers are checked against.

#ifndef QVT_TESTS_SEARCH_REFERENCE_H_
#define QVT_TESTS_SEARCH_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
#include "kernel_backends.h"
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

/// The searcher's chunk bound test, spelled out independently of it: true
/// when chunk `chunk_id` can hold no row that enters a result set whose
/// limit is `limit`. The sphere test (centroid distance - radius, less a
/// relative slack of 1e-9, above the limit), then the rectangle gap sum
/// (per coordinate the gap of the query outside [lo, hi], squared and
/// summed in ascending order in double) above
/// kernels::AbandonThreshold(limit).
inline bool ReferenceBoundRulesOut(const ChunkIndex& index,
                                   const SearchScratch& scratch,
                                   std::span<const float> query,
                                   uint32_t chunk_id, double limit) {
  constexpr double kSlack = 1e-9;
  if (!(limit < std::numeric_limits<double>::infinity())) return false;
  const double cd = scratch.centroid_distance[chunk_id];
  const double radius = index.radius(chunk_id);
  if (cd - radius - kSlack * (cd + radius) > limit) return true;
  const std::span<const float> lo = index.rect_lo(chunk_id);
  const std::span<const float> hi = index.rect_hi(chunk_id);
  double sum = 0.0;
  for (size_t d = 0; d < query.size(); ++d) {
    const double q = query[d];
    const double gap = std::max(std::max(lo[d] - q, q - hi[d]), 0.0);
    sum += gap * gap;
  }
  return sum > kernels::AbandonThreshold(limit);
}

/// What RankOrderReference runs beyond (query, k, stop).
struct ReferenceOptions {
  /// The caller's bound: the result set starts with this limit.
  double bound = std::numeric_limits<double>::infinity();
  /// False runs the paper's rule, which reads every rank it reaches; true
  /// passes over a rank whose chunk ReferenceBoundRulesOut rejects (under
  /// kMaxChunks at the starting limit, under the exact and epsilon rules
  /// at the current one, never under the time budget).
  bool skip = true;
  /// Ids (ascending) refused by the result set's dead-id filter.
  std::span<const DescriptorId> excluded = {};
  /// When non-null, receives the ranks passed over, ascending.
  std::vector<size_t>* skipped_ranks = nullptr;
};

/// The §4.3 search written out as the paper states it, one public layer
/// call at a time and one query at a time: RankChunks, then ReadChunk of
/// each chunk in rank order, scanned by BatchSquaredDistanceAbandon into a
/// KnnResultSet, with every stop rule checked before the next rank and the
/// DiskCostModel charged per chunk read (no cache). `searcher` supplies
/// only RankChunks' full ranking; the exact rule's bound is rebuilt here. Fills neighbors, chunks_read, chunks_skipped,
/// descriptors_scanned, model_micros, tombstones_filtered and exact.
inline MethodResult RankOrderReference(const Searcher& searcher,
                                       const DiskCostModel& cost_model,
                                       std::span<const float> query, size_t k,
                                       const StopRule& stop,
                                       const ReferenceOptions& options = {}) {
  constexpr size_t kBlock = 256;
  const ChunkIndex& index = *searcher.index();
  const size_t num_chunks = index.num_chunks();
  SearchScratch scratch;
  int64_t model_micros = searcher.RankChunks(query, scratch);
  // The exact rule's lower bound of the chunks ranked >= r: the least
  // centroid distance - radius over them, each less the sphere test's
  // relative slack of 1e-9 (a computed cd - r can round above a row's
  // computed distance), floored at 0.
  std::vector<double> suffix_bound(num_chunks + 1,
                                   std::numeric_limits<double>::infinity());
  for (size_t r = num_chunks; r-- > 0;) {
    const uint32_t chunk_id = scratch.rank_order[r];
    const double cd = scratch.centroid_distance[chunk_id];
    const double radius = index.radius(chunk_id);
    suffix_bound[r] = std::min(
        suffix_bound[r + 1],
        std::max(0.0, cd - radius - 1e-9 * (cd + radius)));
  }

  MethodResult out;
  QueryTelemetry& t = out.telemetry;
  KnnResultSet result_set(k, options.excluded, options.bound);
  const double start_limit = result_set.KthDistance();
  std::vector<double> distances(kBlock);
  ChunkData data;
  size_t r = 0;
  for (; r < num_chunks; ++r) {
    if (stop.kind == StopRule::Kind::kMaxChunks && r >= stop.max_chunks) {
      break;
    }
    if (stop.kind == StopRule::Kind::kTimeBudget &&
        model_micros >= stop.budget_micros) {
      break;
    }
    if (stop.kind == StopRule::Kind::kExact &&
        suffix_bound[r] * (1.0 + stop.epsilon) >
            result_set.KthDistance()) {
      t.exact = stop.epsilon == 0.0;
      break;
    }
    const uint32_t chunk_id = scratch.rank_order[r];
    const double skip_limit = stop.kind == StopRule::Kind::kMaxChunks
                                  ? start_limit
                                  : result_set.KthDistance();
    if (options.skip && stop.kind != StopRule::Kind::kTimeBudget &&
        ReferenceBoundRulesOut(index, scratch, query, chunk_id, skip_limit)) {
      ++t.chunks_skipped;
      if (options.skipped_ranks != nullptr) {
        options.skipped_ranks->push_back(r);
      }
      continue;
    }
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
  t.tombstones_filtered = result_set.refused();
  return out;
}

/// One MaxChunks(m) plan against the full ranking of the same query
/// (RankChunks under the exact rule): the first min(m, n) ranks, and the
/// centroid distances of their chunks, are the full ranking's bit for bit;
/// rank_order names every chunk exactly once; no suffix bound is left
/// behind. For m >= n the plan is the full ranking. For m < n the rest of
/// rank_order is the other ids ascending and every other centroid distance
/// is NaN, so nothing an earlier query left in the scratch shows through.
inline void ExpectSelectionPlan(const SearchScratch& plan,
                                const SearchScratch& full, size_t m,
                                const std::string& label) {
  const size_t n = full.rank_order.size();
  ASSERT_EQ(plan.rank_order.size(), n) << label;
  ASSERT_EQ(plan.centroid_distance.size(), n) << label;
  EXPECT_TRUE(plan.suffix_min_bound.empty()) << label;
  std::vector<uint32_t> ids = plan.rank_order;
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ids[i], i) << label << ": rank_order is not a permutation";
  }
  const size_t ranked = std::min(m, n);
  std::vector<bool> selected(n, m >= n);
  for (size_t r = 0; r < ranked; ++r) {
    const uint32_t chunk_id = plan.rank_order[r];
    EXPECT_EQ(chunk_id, full.rank_order[r]) << label << " rank " << r;
    selected[chunk_id] = true;
    EXPECT_EQ(std::memcmp(&plan.centroid_distance[chunk_id],
                          &full.centroid_distance[chunk_id], sizeof(double)),
              0)
        << label << " rank " << r;
  }
  if (m >= n) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::memcmp(&plan.centroid_distance[i],
                            &full.centroid_distance[i], sizeof(double)),
                0)
          << label << " chunk " << i;
    }
    return;
  }
  for (size_t r = ranked + 1; r < n; ++r) {
    EXPECT_LT(plan.rank_order[r - 1], plan.rank_order[r])
        << label << ": the unselected ranks are not ascending at " << r;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!selected[i]) {
      EXPECT_TRUE(std::isnan(plan.centroid_distance[i]))
          << label << " unselected chunk " << i;
    }
  }
}

/// On every supported backend, the MaxChunks(m) plan of `queries` for m in
/// {1, 2, 8, n - 1}, ranked in batches of the first 1, 3, 4, 5 and 9 (as
/// far as there are queries) into fresh scratches and into scratches last
/// used by other queries' exact plans, equals each query's full ranking on
/// that backend (ExpectSelectionPlan).
inline void ExpectFloatFirstPlansEqualFullRanking(
    const Searcher& searcher,
    std::span<const std::span<const float>> queries,
    const std::string& label) {
  const size_t n = searcher.index()->num_chunks();
  const size_t nq = queries.size();
  BackendGuard guard;
  for (const kernels::Backend backend : SupportedBackends()) {
    kernels::SetBackendForTesting(backend);
    const std::string on = label + "/" + kernels::BackendName(backend);
    std::vector<SearchScratch> full(nq);
    for (size_t q = 0; q < nq; ++q) searcher.RankChunks(queries[q], full[q]);
    for (const size_t m : {size_t{1}, size_t{2}, size_t{8}, n - 1}) {
      if (m == 0 || m >= n) continue;
      for (const size_t batch : {1u, 3u, 4u, 5u, 9u}) {
        if (batch > nq) continue;
        const std::string at = on + " m " + std::to_string(m) + " batch " +
                               std::to_string(batch);
        std::vector<SearchScratch> fresh(batch);
        std::vector<SearchScratch> foreign(batch);
        std::vector<SearchScratch*> fresh_ptrs;
        std::vector<SearchScratch*> foreign_ptrs;
        for (size_t q = 0; q < batch; ++q) {
          searcher.RankChunks(queries[(q + 1) % nq], foreign[q]);
          fresh_ptrs.push_back(&fresh[q]);
          foreign_ptrs.push_back(&foreign[q]);
        }
        const StopRule rule = StopRule::MaxChunks(m);
        searcher.RankChunksBatch(queries.first(batch), fresh_ptrs, rule);
        searcher.RankChunksBatch(queries.first(batch), foreign_ptrs, rule);
        for (size_t q = 0; q < batch; ++q) {
          const std::string query = at + " query " + std::to_string(q);
          ExpectSelectionPlan(fresh[q], full[q], m, query + " (fresh)");
          ExpectSelectionPlan(foreign[q], full[q], m, query + " (foreign)");
        }
      }
    }
  }
}

/// `answer` filtered to distance <= bound.
inline std::vector<Neighbor> Within(const std::vector<Neighbor>& answer,
                                    double bound) {
  std::vector<Neighbor> out;
  for (const Neighbor& n : answer) {
    if (n.distance <= bound) out.push_back(n);
  }
  return out;
}

/// Asserts `got` equals `want`: neighbor ids and the raw bits of every
/// distance.
inline void ExpectSameBits(const std::vector<Neighbor>& got,
                           const std::vector<Neighbor>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance,
                          sizeof(double)),
              0)
        << label << " rank " << i;
  }
}

/// Asserts `got` equals the reference answer: neighbor ids, the raw bits
/// of every distance, chunks read and skipped, descriptors read, modeled
/// time, dead rows refused and the exact verdict.
inline void ExpectMatchesReference(const MethodResult& got,
                                   const MethodResult& reference,
                                   const std::string& label) {
  const QueryTelemetry& a = got.telemetry;
  const QueryTelemetry& b = reference.telemetry;
  EXPECT_EQ(a.chunks_read, b.chunks_read) << label;
  EXPECT_EQ(a.chunks_skipped, b.chunks_skipped) << label;
  EXPECT_EQ(a.descriptors_scanned, b.descriptors_scanned) << label;
  EXPECT_EQ(a.model_micros, b.model_micros) << label;
  EXPECT_EQ(a.tombstones_filtered, b.tombstones_filtered) << label;
  EXPECT_EQ(a.exact, b.exact) << label;
  ExpectSameBits(got.neighbors, reference.neighbors, label);
}

}  // namespace qvt

#endif  // QVT_TESTS_SEARCH_REFERENCE_H_

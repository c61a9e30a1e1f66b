#include "core/searcher.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/search_method.h"
#include "geometry/kernels.h"
#include "storage/page.h"
#include "util/logging.h"

namespace qvt {

namespace {

/// Chunk scans run block-by-block so the abandon threshold can tighten as
/// the result set fills, while each kernel call still amortizes dispatch
/// over many rows.
constexpr size_t kScanBlock = 256;

/// Relative slack of the chunk-level sphere test, scaled by
/// centroid_distance + radius. It covers the rounding of both computed
/// distances and of their difference (a few ulps times the dimension,
/// ~1e-15 at dim 24) and AbandonThreshold's 1e-12 inflation, with orders of
/// magnitude to spare; see DESIGN.md "Chunk-level abandon".
constexpr double kSphereSlack = 1e-9;

/// True when the sphere bound (centroid distance - radius, from the plan)
/// shows that no row of chunk `chunk_id` can get past AdmitRows for a
/// query whose result set's limit (k-th distance, capped by its bound) is
/// `limit`: every row's kernel squared distance provably exceeds
/// kernels::AbandonThreshold(limit), so sweeping the chunk would leave the
/// set untouched. A finite limit the sphere does not settle goes on to the
/// rectangle bound (ChunkRuledOut, and the batched sweep-time test).
bool SphereRulesOut(const ChunkIndex& index, uint32_t chunk_id,
                    const SearchScratch& s, double limit) {
  const double cd = s.centroid_distance[chunk_id];
  const double r = index.radius(chunk_id);
  return cd - r - kSphereSlack * (cd + r) > limit;
}

/// The chunk-level bound test for one query: the sphere, then the
/// rectangle gap sum against kernels::AbandonThreshold(limit). No slack
/// beyond the abandon threshold: each gap is a rounded difference no
/// larger than the row's rounded difference (rounding is monotone and
/// lo_d <= row_d <= hi_d), squared and summed in the kernel's ascending-d
/// order, so the sum never exceeds any row's kernel value. True only when
/// no row of the chunk can enter a result set whose limit is `limit`.
bool ChunkRuledOut(const ChunkIndex& index, uint32_t chunk_id,
                   const SearchScratch& s, double limit) {
  if (!(limit < std::numeric_limits<double>::infinity())) return false;
  if (SphereRulesOut(index, chunk_id, s, limit)) return true;
  const double* query = s.wide_query.data();
  double sum = 0.0;
  kernels::RectangleGapSums(index.rect_lo(chunk_id).data(),
                            index.rect_hi(chunk_id).data(), index.dim(),
                            &query, 1, &sum);
  return sum > kernels::AbandonThreshold(limit);
}

/// SearchScratch::charges entry of a rank passed over unread.
constexpr std::pair<int64_t, int64_t> kUnreadCharge{-1, -1};

}  // namespace

Status FetchChunk(const ChunkIndex& index, ChunkCache* cache,
                  uint32_t chunk_id, ChunkData* buffer,
                  std::shared_ptr<const ChunkData>* cache_ref,
                  const ChunkData** data, bool* from_cache) {
  *from_cache = false;
  if (cache != nullptr) {
    // Single-flight read-through: concurrent misses on one chunk coalesce
    // into one disk read (no thundering herd), and the scan reads straight
    // out of the returned handle — no post-scan Put, no copy.
    QVT_RETURN_IF_ERROR(cache->GetOrLoad(
        chunk_id, index.location(chunk_id).num_pages,
        [&](ChunkData* out) { return index.ReadChunk(chunk_id, out); },
        cache_ref, from_cache));
    *data = cache_ref->get();
    return Status::OK();
  }
  QVT_RETURN_IF_ERROR(index.ReadChunk(chunk_id, buffer));
  *data = buffer;
  return Status::OK();
}

Searcher::Searcher(const ChunkIndex* index, const DiskCostModel& cost_model,
                   ChunkCache* cache, PrefetcherOptions)
    : index_(index), cost_model_(cost_model), cache_(cache) {
  QVT_CHECK(index != nullptr);
}

namespace {

/// Writes the m chunk ids closest under (distance, id) to order[0..m),
/// ascending, and the other n - m ids to order[m..n) in no particular
/// order; 0 < m < n. The first m ids are sorted into `best`; every later id
/// is one compare against the m-th distance and, only when strictly closer,
/// an insertion that pushes the m-th out to the tail. Ids arrive in
/// ascending order, so a later id never wins a distance tie: it enters
/// behind every equal distance, which keeps `best` in (distance, id) order.
/// Insertions number about m * ln(n / m) on shuffled distances, so the pass
/// costs O(n + m^2 log(n / m)) beyond the first sort.
void SelectClosest(const double* distance, size_t n, size_t m,
                   uint32_t* order,
                   std::vector<std::pair<double, uint32_t>>& best) {
  best.resize(m);
  for (uint32_t i = 0; i < m; ++i) best[i] = {distance[i], i};
  std::sort(best.begin(), best.end());
  double worst = best[m - 1].first;
  uint32_t* tail = order + m;
  for (uint32_t i = static_cast<uint32_t>(m); i < n; ++i) {
    const double d = distance[i];
    if (!(d < worst)) {
      *tail++ = i;
      continue;
    }
    *tail++ = best[m - 1].second;
    size_t slot = m - 1;
    for (; slot > 0 && d < best[slot - 1].first; --slot) {
      best[slot] = best[slot - 1];
    }
    best[slot] = {d, i};
    worst = best[m - 1].first;
  }
  for (size_t r = 0; r < m; ++r) order[r] = best[r].second;
}

}  // namespace

int64_t Searcher::RankChunks(std::span<const float> query,
                             SearchScratch& scratch,
                             const StopRule& stop) const {
  SearchScratch* const scratches[] = {&scratch};
  return RankChunksBatch({&query, 1}, scratches, stop);
}

int64_t Searcher::RankChunksBatch(
    std::span<const std::span<const float>> queries,
    std::span<SearchScratch* const> scratches, const StopRule& stop) const {
  QVT_CHECK(queries.size() == scratches.size());
  const size_t num_chunks = index_->num_chunks();
  const size_t nq = queries.size();
  // One fused kernel call over the contiguous centroid matrix for the whole
  // batch. Its completed values are the single-query kernel's, and sqrt of
  // the kernel's squared distance is bit-identical to vec::Distance (same
  // ascending-d reduction, same correctly rounded sqrt), so the ranking —
  // ties broken by chunk id — is too.
  std::vector<const double*> wide(nq);
  std::vector<double*> outs(nq);
  const std::vector<double> no_abandon(
      nq, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < nq; ++i) {
    SearchScratch& s = *scratches[i];
    s.wide_query.assign(queries[i].begin(), queries[i].end());
    s.centroid_distance.resize(num_chunks);
    wide[i] = s.wide_query.data();
    outs[i] = s.centroid_distance.data();
  }
  kernels::MultiQueryBatchSquaredDistanceAbandon(
      index_->centroid_matrix().data(), num_chunks, index_->dim(),
      wide.data(), no_abandon.data(), nq, outs.data());

  for (SearchScratch* const scratch : scratches) {
    SearchScratch& s = *scratch;
    kernels::SqrtInPlace(s.centroid_distance.data(), num_chunks);
    const double* distance = s.centroid_distance.data();
    s.rank_order.resize(num_chunks);
    // Under kMaxChunks only the first max_chunks ranks are ever read; with
    // none, the order stays the identity.
    const bool select = stop.kind == StopRule::Kind::kMaxChunks &&
                        stop.max_chunks < num_chunks;
    if (select && stop.max_chunks > 0) {
      SelectClosest(distance, num_chunks, stop.max_chunks,
                    s.rank_order.data(), s.closest);
    } else {
      std::iota(s.rank_order.begin(), s.rank_order.end(), 0u);
      if (!select) {
        std::sort(s.rank_order.begin(), s.rank_order.end(),
                  [distance](uint32_t a, uint32_t b) {
                    if (distance[a] != distance[b]) {
                      return distance[a] < distance[b];
                    }
                    return a < b;
                  });
      }
    }
    if (stop.kind != StopRule::Kind::kExact) {
      // Only the exact (and epsilon) rule reads the suffix bound; clearing
      // it leaves no stale bound from an earlier query in a reused scratch.
      s.suffix_min_bound.clear();
      continue;
    }

    // Suffix minimum of the chunk lower bounds (centroid distance - radius)
    // over the ranked order. suffix_min_bound[r] is the closest any
    // descriptor in chunks ranked >= r can be to the query; the exact stop
    // rule fires when it exceeds the k-th distance. (The paper phrases the
    // rule as "minimum distance to the next chunk"; taking the minimum over
    // all remaining chunks is what makes the guarantee airtight, since
    // centroid order is not lower-bound order.)
    s.suffix_min_bound.resize(num_chunks + 1);
    s.suffix_min_bound[num_chunks] = std::numeric_limits<double>::infinity();
    for (size_t r = num_chunks; r-- > 0;) {
      const uint32_t chunk_id = s.rank_order[r];
      const double lower_bound =
          std::max(0.0, distance[chunk_id] - index_->radius(chunk_id));
      s.suffix_min_bound[r] = std::min(s.suffix_min_bound[r + 1], lower_bound);
    }
  }
  return cost_model_.IndexScanMicros(num_chunks);
}

void Searcher::FinishTelemetry(QueryTelemetry& t) const {
  t.scan.wall_micros = t.wall_micros - t.plan.wall_micros;
  t.scan.model_micros = t.model_micros - t.plan.model_micros;
  t.probes = t.chunks_read;
  t.index_entries_scanned = index_->num_chunks();
  t.candidates_examined = t.descriptors_scanned;
}

StatusOr<MethodResult> Searcher::Search(
    std::span<const float> query, size_t k, const StopRule& stop,
    const SearchObserver& observer, SearchScratch* scratch,
    std::span<const DescriptorId> excluded) const {
  SearchScratch local_scratch;
  QVT_ASSIGN_OR_RETURN(
      std::vector<MethodResult> results,
      Execute({&query, 1}, k, stop, nullptr, observer,
              scratch != nullptr ? scratch : &local_scratch, excluded, {}));
  return std::move(results.front());
}

StatusOr<std::vector<MethodResult>> Searcher::SearchShared(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, SharedScanStats* shared,
    std::span<const DescriptorId> excluded,
    std::span<const double> bounds) const {
  return Execute(queries, k, stop, shared, nullptr, nullptr, excluded, bounds);
}

namespace {

/// Private state of one query inside the executor. Everything that evolves
/// during the scan — result set, stop-rule inputs, accounting — is
/// per-query, so queries co-scanning one chunk never share mutable state.
struct QueryState {
  /// The caller's query, alive for the call. The float bound filter reads
  /// it; scratch->wide_query is its exact widening, so the filter and the
  /// exact kernel see the same values.
  std::span<const float> query;
  SearchScratch* scratch = nullptr;
  std::optional<KnnResultSet> result_set;
  MethodResult result;
  int64_t model_micros = 0;  ///< as-if-alone serial model clock
  int64_t wall_micros = 0;   ///< fair-share wall attribution
  size_t next_rank = 0;      ///< next rank position to demand (round mode)
  bool skipped = false;      ///< the chunk being processed was not swept
};

/// One (query, rank position) pair attached to a scheduled chunk.
struct ChunkAttachment {
  QueryState* state;
  size_t rank;
};

/// Reusable arrays of the chunk sweep. Hoisted out of the per-chunk
/// sweep: the executor visits thousands of chunks per batch and heap
/// allocations per chunk would rival the scan itself. `distances` holds
/// the exact kernel output of the chunk's queries, one kScanBlock row
/// each; it is reused for every chunk, so the kernels write to cache-hot
/// memory rather than to a per-query buffer last touched chunks ago.
struct SweepScratch {
  std::vector<size_t> fused;  ///< attachments whose limit is +inf
  std::vector<const double*> queries;
  std::vector<double*> outs;
  std::vector<double> thresholds;
  std::vector<double> distances;
  std::vector<uint32_t> survivors;
};

/// Sweeps one fetched chunk for all attached queries, kScanBlock rows at a
/// time, each query under its own result set's limit (k-th capped by its
/// bound) re-read at every block, so each query's (limit, admitted rows)
/// sequence is the one it would see scanning the chunk alone.
///  - Limit +inf (a set not yet full): the fused multi-query kernel
///    computes every row exactly.
///  - Finite limit: the float bound filter rejects the rows whose exact
///    value provably exceeds kernels::AbandonThreshold(limit); only the
///    survivors are recomputed by the exact kernel, whose values are
///    bit-identical to the contiguous kernel's.
/// Either way AdmitRows offers, in row order, exactly the rows with
/// !(exact > AbandonThreshold(current limit)); a rejected row exceeds the
/// block-start limit, and the limit only falls within a sweep, so it could
/// never have entered the set. Results are bit-identical to the plain
/// per-row scan (see DESIGN.md "Float bound filter").
void SweepChunkForQueries(const ChunkData& data,
                          std::span<const ChunkAttachment> atts,
                          SweepScratch& sweep) {
  const size_t dim = data.dim;
  const size_t nq = atts.size();
  sweep.distances.resize(nq * kScanBlock);
  sweep.survivors.resize(kScanBlock);
  uint32_t* survivors = sweep.survivors.data();
  for (size_t b = 0; b < data.size(); b += kScanBlock) {
    const size_t bn = std::min(kScanBlock, data.size() - b);
    const float* rows = data.values.data() + b * dim;
    sweep.fused.clear();
    for (size_t j = 0; j < nq; ++j) {
      QueryState& q = *atts[j].state;
      KnnResultSet& result_set = *q.result_set;
      const double limit = result_set.KthDistance();
      if (!(limit < std::numeric_limits<double>::infinity())) {
        sweep.fused.push_back(j);
        continue;
      }
      const size_t kept =
          kernels::FloatBoundFilter(rows, bn, dim, q.query,
                                    kernels::AbandonThreshold(limit),
                                    survivors);
      double* out = sweep.distances.data() + j * kScanBlock;
      kernels::GatherSquaredDistance(rows, dim, {survivors, kept},
                                     q.scratch->wide_query, out);
      AdmitRows(out, kept, result_set, [&](size_t i, double distance) {
        return result_set.Insert(data.ids[b + survivors[i]], distance);
      });
    }
    const size_t nf = sweep.fused.size();
    if (nf == 0) continue;
    sweep.queries.resize(nf);
    sweep.outs.resize(nf);
    sweep.thresholds.assign(nf, std::numeric_limits<double>::infinity());
    for (size_t f = 0; f < nf; ++f) {
      const size_t j = sweep.fused[f];
      sweep.queries[f] = atts[j].state->scratch->wide_query.data();
      sweep.outs[f] = sweep.distances.data() + j * kScanBlock;
    }
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        rows, bn, dim, sweep.queries.data(), sweep.thresholds.data(), nf,
        sweep.outs.data());
    for (size_t f = 0; f < nf; ++f) {
      KnnResultSet& result_set = *atts[sweep.fused[f]].state->result_set;
      AdmitRows(sweep.outs[f], bn, result_set,
                [&](size_t i, double distance) {
                  return result_set.Insert(data.ids[b + i], distance);
                });
    }
  }
}

}  // namespace

StatusOr<std::vector<MethodResult>> Searcher::Execute(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, SharedScanStats* shared,
    const SearchObserver& observer, SearchScratch* scratch,
    std::span<const DescriptorId> excluded,
    std::span<const double> bounds) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  for (const auto& query : queries) {
    QVT_RETURN_IF_ERROR(ValidateQuery(query, index_->dim()));
  }
  if (!bounds.empty() && bounds.size() != queries.size()) {
    return Status::InvalidArgument(
        "bounds holds " + std::to_string(bounds.size()) + " entries for " +
        std::to_string(queries.size()) + " queries");
  }
  for (const double bound : bounds) {
    if (!(bound >= 0.0)) {
      return Status::InvalidArgument("a query bound must be >= 0 (or +inf)");
    }
  }
  const size_t num_chunks = index_->num_chunks();
  const size_t nq = queries.size();

  WallClock wall;
  Stopwatch call_watch(&wall);

  // --- Plan: rank what each query's stop rule can read (§4.3 step 1). ----
  // One batched pass for every query; each query is charged an even share
  // of its wall time and the full modeled index scan.
  std::vector<SearchScratch> owned_scratch(
      scratch != nullptr && nq == 1 ? 0 : nq);
  std::vector<QueryState> states(nq);
  std::vector<SearchScratch*> plan_scratches(nq);
  for (size_t i = 0; i < nq; ++i) {
    states[i].query = queries[i];
    states[i].scratch = owned_scratch.empty() ? scratch : &owned_scratch[i];
    plan_scratches[i] = states[i].scratch;
  }
  Stopwatch plan_watch(&wall);
  const int64_t plan_model_micros =
      RankChunksBatch(queries, plan_scratches, stop);
  const int64_t plan_wall_share =
      nq > 0 ? plan_watch.ElapsedMicros() / static_cast<int64_t>(nq) : 0;
  for (size_t i = 0; i < nq; ++i) {
    QueryState& q = states[i];
    SearchScratch& s = *q.scratch;
    q.model_micros = plan_model_micros;
    QueryTelemetry& t = q.result.telemetry;
    t.plan.model_micros = plan_model_micros;
    t.plan.wall_micros = plan_wall_share;
    q.wall_micros = plan_wall_share;
    const double bound =
        bounds.empty() ? std::numeric_limits<double>::infinity() : bounds[i];
    q.result_set.emplace(k, excluded, bound);
    s.charges.clear();
  }
  if (shared != nullptr) {
    shared->enabled = true;
    shared->queries += nq;
  }

  // Cache-less fetches land in the first query's chunk buffer (no other
  // query's buffer is ever used).
  ChunkData* fetch_buffer = nq > 0 ? &states.front().scratch->chunk : nullptr;
  SweepScratch sweep;  // reused across every chunk and schedule
  std::vector<ChunkAttachment> swept;  // a chunk's attachments not skipped
  // Attachments the sphere test left to the rectangle test: their wide
  // queries and, from the kernel, their rectangle gap sums.
  std::vector<QueryState*> rect_pending;
  std::vector<const double*> rect_queries;
  std::vector<double> rect_sums;

  // Fetches and sweeps one schedule: chunk order[ci] is swept once for its
  // attached queries atts[range_end[ci-1] .. range_end[ci]). Accounting is
  // "as-if-alone": every attached query is charged the chunk's full model
  // cost under the shared fetch's cache verdict — the same verdict it would
  // see scanning alone given the same cache state.
  auto process = [&](std::span<const uint32_t> order,
                     std::span<const size_t> range_end,
                     std::span<const ChunkAttachment> flat_atts) -> Status {
    Stopwatch sweep_watch(&wall);
    int64_t last_micros = 0;
    for (size_t ci = 0; ci < order.size(); ++ci) {
      const uint32_t chunk_id = order[ci];
      const ChunkLocation& loc = index_->location(chunk_id);

      std::shared_ptr<const ChunkData> cache_ref;
      const ChunkData* data = nullptr;
      bool from_cache = false;
      QVT_RETURN_IF_ERROR(FetchChunk(*index_, cache_, chunk_id, fetch_buffer,
                                     &cache_ref, &data, &from_cache));

      const size_t att_begin = ci == 0 ? 0 : range_end[ci - 1];
      const std::span<const ChunkAttachment> atts =
          flat_atts.subspan(att_begin, range_end[ci] - att_begin);
      // Chunk-level abandon: a query whose limit fell, since it demanded
      // the chunk, far enough for the chunk's bound to rule it out would
      // admit none of its rows, so only the others sweep. The chunk was
      // fetched and every attachment is still charged below. This is
      // ChunkRuledOut for each attachment: the sphere test settles most
      // with a finite limit, and the rest take the rectangle test in one
      // kernel call, one lane per query.
      rect_pending.clear();
      rect_queries.clear();
      for (const ChunkAttachment& att : atts) {
        QueryState& q = *att.state;
        const double limit = q.result_set->KthDistance();
        q.skipped = false;
        if (!(limit < std::numeric_limits<double>::infinity())) continue;
        q.skipped = SphereRulesOut(*index_, chunk_id, *q.scratch, limit);
        if (!q.skipped) {
          rect_pending.push_back(&q);
          rect_queries.push_back(q.scratch->wide_query.data());
        }
      }
      if (!rect_pending.empty()) {
        rect_sums.resize(rect_pending.size());
        kernels::RectangleGapSums(
            index_->rect_lo(chunk_id).data(), index_->rect_hi(chunk_id).data(),
            index_->dim(), rect_queries.data(), rect_queries.size(),
            rect_sums.data());
        for (size_t j = 0; j < rect_pending.size(); ++j) {
          QueryState& q = *rect_pending[j];
          q.skipped = rect_sums[j] >
                      kernels::AbandonThreshold(q.result_set->KthDistance());
        }
      }
      swept.clear();
      for (const ChunkAttachment& att : atts) {
        if (!att.state->skipped) swept.push_back(att);
      }
      if (!swept.empty()) SweepChunkForQueries(*data, swept, sweep);

      const int64_t io_micros = cost_model_.ChunkIoMicros(loc.num_pages);
      const int64_t cpu_micros =
          cost_model_.ChunkCpuMicros(loc.num_descriptors);
      // One clock read per chunk: the share is the delta since the
      // previous chunk finished (fetch + sweep), split evenly.
      const int64_t now_micros = sweep_watch.ElapsedMicros();
      const int64_t wall_share = (now_micros - last_micros) /
                                 static_cast<int64_t>(atts.size());
      last_micros = now_micros;
      for (const ChunkAttachment& att : atts) {
        QueryState& q = *att.state;
        QueryTelemetry& t = q.result.telemetry;
        ++t.chunks_read;
        if (q.skipped) ++t.sweeps_skipped;
        t.descriptors_scanned += data->size();
        t.max_probe_rows =
            std::max<uint64_t>(t.max_probe_rows, loc.num_descriptors);
        if (cache_ != nullptr) {
          from_cache ? ++t.cache_hits : ++t.cache_misses;
        }
        if (!from_cache) t.bytes_read += loc.num_pages * kPageSize;
        // Cache hits skip the disk entirely: CPU cost only.
        q.model_micros +=
            from_cache ? cpu_micros
                       : cost_model_.ChunkTotalMicros(loc.num_pages,
                                                      loc.num_descriptors);
        const std::pair<int64_t, int64_t> charge{from_cache ? 0 : io_micros,
                                                 cpu_micros};
        std::vector<std::pair<int64_t, int64_t>>& charges =
            q.scratch->charges;
        if (stop.kind == StopRule::Kind::kMaxChunks) {
          charges[att.rank] = charge;
        } else {
          charges.push_back(charge);  // round mode reads in rank order
        }
        q.wall_micros += wall_share;
        if (observer) {
          SearchProgress progress;
          progress.rank = att.rank;
          progress.chunks_read = t.chunks_read;
          progress.chunk_descriptors = loc.num_descriptors;
          progress.descriptors_processed = t.descriptors_scanned;
          progress.model_elapsed_micros = q.model_micros;
          progress.wall_elapsed_micros = q.wall_micros;
          progress.skipped = q.skipped;
          progress.result = &*q.result_set;
          observer(progress);
        }
      }
      if (shared != nullptr) {
        ++shared->chunk_fetches;
        shared->chunk_attachments += atts.size();
        shared->rows_fetched += data->size();
        shared->rows_scan_shared +=
            static_cast<uint64_t>(atts.size() - 1) * data->size();
        ++shared->coscan_histogram[SharedScanStats::HistogramBucket(
            atts.size())];
      }
    }
    return Status::OK();
  };

  // Turns a flat (chunk id, attachment) demand list into the grouped
  // (order, range_end, attachments) arrays process() consumes. The
  // schedule is sorted by the best (lowest) rank any attached query gave
  // the chunk, ties by chunk id: results are order-independent (the result
  // set's (distance, id) ordering fixes the final top-k), but
  // early-abandon thresholds are not — sweeping everyone's best-ranked
  // chunks first tightens every query's k-th distance almost as fast as
  // its private rank order would, keeping the pruning power of a lone
  // scan. A lone query's schedule is therefore its rank order.
  // Deterministic: the key is derived from the (deterministic) plans,
  // never from timing. Only the distinct chunks are sorted; attachments
  // are then placed by a counting pass, so each chunk keeps its queries in
  // submission order.
  constexpr size_t kUnranked = static_cast<size_t>(-1);
  std::vector<size_t> best_rank(num_chunks, kUnranked);  // per chunk id
  std::vector<size_t> slot(num_chunks);  // per chunk id: count, then cursor
  std::vector<uint32_t> order;
  std::vector<size_t> range_end;
  std::vector<ChunkAttachment> atts;
  using Demand = std::pair<uint32_t, ChunkAttachment>;  // (chunk id, query)
  auto run_schedule = [&](std::span<const Demand> demands) -> Status {
    order.clear();
    for (const auto& [chunk_id, att] : demands) {
      if (best_rank[chunk_id] == kUnranked) {
        order.push_back(chunk_id);
        slot[chunk_id] = 0;
      }
      best_rank[chunk_id] = std::min(best_rank[chunk_id], att.rank);
      ++slot[chunk_id];
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (best_rank[a] != best_rank[b]) return best_rank[a] < best_rank[b];
      return a < b;
    });
    range_end.resize(order.size());
    size_t end = 0;
    for (size_t ci = 0; ci < order.size(); ++ci) {
      const uint32_t chunk_id = order[ci];
      const size_t count = slot[chunk_id];
      slot[chunk_id] = end;
      end += count;
      range_end[ci] = end;
      best_rank[chunk_id] = kUnranked;  // reset only what this round touched
    }
    atts.resize(demands.size());
    for (const auto& [chunk_id, att] : demands) atts[slot[chunk_id]++] = att;
    return process(order, range_end, atts);
  };

  // Skip, don't read: a rank whose chunk the query's limit already rules
  // out (ChunkRuledOut) is passed over unfetched and uncharged. Sweeping it
  // would admit no row, so the answer is the one reading it gives (DESIGN.md
  // "Skip, don't read"). The observer still hears of it, with the charge
  // reading it would have cost, so the paper's rule can be rebuilt.
  auto skip_rank = [&](QueryState& q, size_t rank) {
    QueryTelemetry& t = q.result.telemetry;
    ++t.chunks_skipped;
    if (!observer) return;
    const ChunkLocation& loc = index_->location(q.scratch->rank_order[rank]);
    SearchProgress progress;
    progress.rank = rank;
    progress.chunks_read = t.chunks_read;
    progress.chunk_descriptors = loc.num_descriptors;
    progress.descriptors_processed = t.descriptors_scanned;
    progress.model_elapsed_micros = q.model_micros;
    progress.wall_elapsed_micros = q.wall_micros;
    progress.rank_skipped = true;
    progress.skipped_model_micros =
        cost_model_.ChunkTotalMicros(loc.num_pages, loc.num_descriptors);
    progress.result = &*q.result_set;
    observer(progress);
  };

  std::vector<Demand> demands;
  if (stop.kind == StopRule::Kind::kMaxChunks) {
    // The scanned set is statically known: each query reads at most its
    // first max_chunks ranked chunks, so the whole batch is one schedule
    // over the distinct demanded chunks — each fetched and decoded once no
    // matter how many queries want it. Scanning out of rank order is safe:
    // the result set's (distance, id) ordering makes the final top-k
    // independent of insertion order, and rank-indexed charge replay
    // restores the modeled timeline (see DESIGN.md). A rank is skipped
    // under the limit the query starts with, its bound: known at plan
    // time, it is the same whatever the schedule, and the limit only falls
    // from there, so the sweep-time test would have skipped the rank too.
    const size_t budget = std::min(stop.max_chunks, num_chunks);
    demands.reserve(nq * budget);
    for (QueryState& q : states) {
      const double limit = q.result_set->KthDistance();
      q.scratch->charges.assign(budget, kUnreadCharge);
      for (size_t r = 0; r < budget; ++r) {
        const uint32_t chunk_id = q.scratch->rank_order[r];
        if (ChunkRuledOut(*index_, chunk_id, *q.scratch, limit)) {
          skip_rank(q, r);
        } else {
          demands.emplace_back(chunk_id, ChunkAttachment{&q, r});
        }
      }
    }
    QVT_RETURN_IF_ERROR(run_schedule(demands));
  } else {
    // Exact / epsilon / time-budget stops depend on evolving per-query
    // state, so the schedule is rebuilt in rounds: every live query
    // checks its stop rule before reading its next ranked chunk (against
    // its own result set and model clock), detaches if it fires, else
    // demands that chunk; one round's demands coalesce into one pass. Each
    // query's chunks are visited in exact rank order across rounds, so its
    // (threshold, chunk, model-clock) sequence is that of a lone scan.
    //
    // True when query q's stop rule fires before rank r; sets its exact
    // verdict.
    auto stops_before = [&](QueryState& q, size_t r) {
      if (r == num_chunks) {
        // Considered every chunk: exact by construction.
        if (stop.kind == StopRule::Kind::kExact) {
          q.result.telemetry.exact = true;
        }
        return true;
      }
      if (stop.kind == StopRule::Kind::kTimeBudget) {
        return q.model_micros >= stop.budget_micros;
      }
      // KthDistance() is the query's bound (+inf without one) until its
      // own set is full, so a caller's k neighbors can end the scan too.
      if (q.scratch->suffix_min_bound[r] * (1.0 + stop.epsilon) >
          q.result_set->KthDistance()) {
        q.result.telemetry.exact = stop.epsilon == 0.0;
        return true;
      }
      return false;
    };
    std::vector<QueryState*> live;
    live.reserve(nq);
    for (QueryState& q : states) live.push_back(&q);
    demands.reserve(nq);
    while (!live.empty()) {
      demands.clear();
      size_t kept = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        QueryState* q = live[i];
        const SearchScratch& s = *q->scratch;
        size_t r = q->next_rank;
        // A skipped rank leaves the k-th as it was, so the stop rule is
        // re-checked at the next rank within the round, and fires at the
        // rank it would fire at had the skipped chunk been read. The time
        // budget skips nothing: a skipped chunk costs no model time, so
        // skipping would buy the budget deeper ranks and other answers.
        bool stopped = stops_before(*q, r);
        while (!stopped && stop.kind == StopRule::Kind::kExact &&
               ChunkRuledOut(*index_, s.rank_order[r], s,
                             q->result_set->KthDistance())) {
          skip_rank(*q, r);
          stopped = stops_before(*q, ++r);
        }
        if (stopped) continue;
        demands.emplace_back(s.rank_order[r], ChunkAttachment{q, r});
        q->next_rank = r + 1;
        live[kept++] = q;
      }
      live.resize(kept);
      if (demands.empty()) break;
      QVT_RETURN_IF_ERROR(run_schedule(demands));
    }
  }

  // --- Finalize: replay charges in rank order, assemble results. ----------
  std::vector<MethodResult> results;
  results.reserve(nq);
  for (QueryState& q : states) {
    QueryTelemetry& t = q.result.telemetry;
    OverlappedScanTimeline timeline(kModeledReadAheadDepth,
                                    t.plan.model_micros);
    for (const auto& [io_micros, cpu_micros] : q.scratch->charges) {
      if (io_micros >= 0) timeline.AddChunk(io_micros, cpu_micros);
    }
    q.result.neighbors = q.result_set->Sorted();
    t.model_micros = q.model_micros;
    t.model_overlapped_micros = timeline.ElapsedMicros();
    t.wall_micros = nq == 1 ? call_watch.ElapsedMicros() : q.wall_micros;
    t.tombstones_filtered = q.result_set->refused();
    FinishTelemetry(t);
    results.push_back(std::move(q.result));
  }
  return results;
}

}  // namespace qvt

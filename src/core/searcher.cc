#include "core/searcher.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/search_method.h"
#include "geometry/kernels.h"
#include "storage/page.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace qvt {

namespace {

/// Chunk scans run block-by-block so the abandon threshold can tighten as
/// the result set fills, while each kernel call still amortizes dispatch
/// over many rows.
constexpr size_t kScanBlock = 256;

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

int64_t Searcher::RankChunks(std::span<const float> query,
                             SearchScratch& scratch) const {
  const size_t num_chunks = index_->num_chunks();
  scratch.rank_order.resize(num_chunks);
  scratch.centroid_distance.resize(num_chunks);
  // One batched kernel call over the contiguous centroid matrix replaces
  // the old per-centroid vec::Distance loop. sqrt of the kernel's squared
  // distance is bit-identical to vec::Distance (same ascending-d reduction,
  // same single sqrt), so the ranking — ties broken by chunk id — is too.
  kernels::BatchSquaredDistance(index_->centroid_matrix().data(), num_chunks,
                                index_->dim(), query,
                                scratch.centroid_distance.data());
  for (size_t i = 0; i < num_chunks; ++i) {
    scratch.rank_order[i] = static_cast<uint32_t>(i);
    scratch.centroid_distance[i] = std::sqrt(scratch.centroid_distance[i]);
  }
  std::sort(scratch.rank_order.begin(), scratch.rank_order.end(),
            [&](uint32_t a, uint32_t b) {
              if (scratch.centroid_distance[a] !=
                  scratch.centroid_distance[b]) {
                return scratch.centroid_distance[a] <
                       scratch.centroid_distance[b];
              }
              return a < b;
            });

  // Suffix minimum of the chunk lower bounds (centroid distance - radius)
  // over the ranked order. suffix_min_bound[r] is the closest any
  // descriptor in chunks ranked >= r can be to the query; the exact stop
  // rule fires when it exceeds the k-th distance. (The paper phrases the
  // rule as "minimum distance to the next chunk"; taking the minimum over
  // all remaining chunks is what makes the guarantee airtight, since
  // centroid order is not lower-bound order.)
  scratch.suffix_min_bound.resize(num_chunks + 1);
  scratch.suffix_min_bound[num_chunks] =
      std::numeric_limits<double>::infinity();
  for (size_t r = num_chunks; r-- > 0;) {
    const uint32_t chunk_id = scratch.rank_order[r];
    const double lower_bound =
        std::max(0.0, scratch.centroid_distance[chunk_id] -
                          index_->radius(chunk_id));
    scratch.suffix_min_bound[r] =
        std::min(scratch.suffix_min_bound[r + 1], lower_bound);
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

StatusOr<MethodResult> Searcher::Search(std::span<const float> query,
                                        size_t k, const StopRule& stop,
                                        const SearchObserver& observer,
                                        SearchScratch* scratch) const {
  SearchScratch local_scratch;
  QVT_ASSIGN_OR_RETURN(
      std::vector<MethodResult> results,
      Execute({&query, 1}, k, stop, /*num_threads=*/1, nullptr, observer,
              scratch != nullptr ? scratch : &local_scratch));
  return std::move(results.front());
}

StatusOr<std::vector<MethodResult>> Searcher::SearchShared(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, size_t num_threads,
    SharedScanStats* shared) const {
  return Execute(queries, k, stop, num_threads, shared, nullptr, nullptr);
}

namespace {

/// Private state of one query inside the executor. Everything that evolves
/// during the scan — result set, stop-rule inputs, accounting — is
/// per-query, so queries co-scanning one chunk never share mutable state.
struct QueryState {
  SearchScratch* scratch = nullptr;
  std::optional<KnnResultSet> result_set;
  MethodResult result;
  int64_t model_micros = 0;  ///< as-if-alone serial model clock
  int64_t wall_micros = 0;   ///< fair-share wall attribution
  size_t next_rank = 0;      ///< next rank position to demand (round mode)
};

/// One (query, rank position) pair attached to a scheduled chunk.
struct ChunkAttachment {
  QueryState* state;
  size_t rank;
};

/// Reusable pointer arrays for one sweep worker. Hoisted out of the
/// per-chunk sweep: the executor visits thousands of chunks per batch and
/// three heap allocations per chunk would rival the scan itself.
struct SweepScratch {
  std::vector<const double*> queries;
  std::vector<double*> outs;
  std::vector<double> thresholds;
};

/// Sweeps one fetched chunk for all attached queries through the fused
/// multi-query kernel: kScanBlock row blocks, per-query abandon thresholds
/// recomputed from each query's own result set between blocks, so each
/// query's (threshold, completed rows) sequence is the one it would see
/// scanning the chunk alone. Rows whose partial sum provably exceeds the
/// current k-th distance are abandoned mid-row; AbandonThreshold()'s margin
/// guarantees no row that could enter the result set (ties included) is
/// ever pruned, so results are bit-identical to the plain per-row scan.
void SweepChunkForQueries(const ChunkData& data,
                          std::span<const ChunkAttachment> atts,
                          SweepScratch& sweep) {
  const size_t dim = data.dim;
  const size_t nq = atts.size();
  sweep.queries.resize(nq);
  sweep.outs.resize(nq);
  sweep.thresholds.resize(nq);
  const double** queries = sweep.queries.data();
  double** outs = sweep.outs.data();
  double* thresholds = sweep.thresholds.data();
  for (size_t j = 0; j < nq; ++j) {
    SearchScratch& s = *atts[j].state->scratch;
    queries[j] = s.wide_query.data();
    outs[j] = s.distances.data();
  }
  for (size_t b = 0; b < data.size(); b += kScanBlock) {
    const size_t bn = std::min(kScanBlock, data.size() - b);
    for (size_t j = 0; j < nq; ++j) {
      thresholds[j] = kernels::AbandonThreshold(
          atts[j].state->result_set->KthDistance());
    }
    kernels::MultiQueryBatchSquaredDistanceAbandon(
        data.values.data() + b * dim, bn, dim, queries, thresholds, nq,
        outs);
    for (size_t j = 0; j < nq; ++j) {
      KnnResultSet& result_set = *atts[j].state->result_set;
      const double* sq = outs[j];
      for (size_t i = 0; i < bn; ++i) {
        if (sq[i] == kernels::kAbandoned) continue;
        result_set.Insert(data.ids[b + i], std::sqrt(sq[i]));
      }
    }
  }
}

}  // namespace

StatusOr<std::vector<MethodResult>> Searcher::Execute(
    std::span<const std::span<const float>> queries, size_t k,
    const StopRule& stop, size_t num_threads, SharedScanStats* shared,
    const SearchObserver& observer, SearchScratch* scratch) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  for (const auto& query : queries) {
    QVT_RETURN_IF_ERROR(ValidateQuery(query, index_->dim()));
  }
  const size_t num_chunks = index_->num_chunks();
  const size_t nq = queries.size();

  WallClock wall;
  Stopwatch call_watch(&wall);

  // --- Plan: rank every query's chunks up front (§4.3 step 1). ------------
  std::vector<SearchScratch> owned_scratch(
      scratch != nullptr && nq == 1 ? 0 : nq);
  std::vector<QueryState> states(nq);
  for (size_t i = 0; i < nq; ++i) {
    QueryState& q = states[i];
    q.scratch = owned_scratch.empty() ? scratch : &owned_scratch[i];
    SearchScratch& s = *q.scratch;
    Stopwatch plan_watch(&wall);
    q.model_micros = RankChunks(queries[i], s);
    QueryTelemetry& t = q.result.telemetry;
    t.plan.model_micros = q.model_micros;
    t.plan.wall_micros = plan_watch.ElapsedMicros();
    q.wall_micros = t.plan.wall_micros;
    q.result_set.emplace(k);
    s.distances.resize(kScanBlock);  // sweep output, reserved once
    s.wide_query.assign(queries[i].begin(), queries[i].end());
    s.charges.clear();
  }
  if (shared != nullptr) {
    shared->enabled = true;
    shared->queries += nq;
  }

  std::optional<ThreadPool> pool;
  if (num_threads > 1 && nq > 1) pool.emplace(num_threads);
  // Cache-less fetches land in the first query's chunk buffer (no other
  // query's buffer is ever used).
  ChunkData* fetch_buffer = nq > 0 ? &states.front().scratch->chunk : nullptr;
  // One sweep scratch per worker, reused across every chunk and schedule.
  std::vector<SweepScratch> sweeps(pool.has_value() ? pool->num_threads()
                                                    : 1);

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
      if (pool.has_value() && atts.size() > 1) {
        // Per-query state is disjoint, so splitting the attachment list
        // into contiguous ranges is safe and results are independent of
        // the thread count and of task completion order.
        const size_t tasks = std::min(pool->num_threads(), atts.size());
        for (size_t t = 0; t < tasks; ++t) {
          const size_t begin = atts.size() * t / tasks;
          const size_t end = atts.size() * (t + 1) / tasks;
          pool->Submit([&sweeps, &atts, data, begin, end, t] {
            SweepChunkForQueries(*data, atts.subspan(begin, end - begin),
                                 sweeps[t]);
          });
        }
        pool->Wait();
      } else {
        SweepChunkForQueries(*data, atts, sweeps.front());
      }

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
        if (charges.size() > att.rank) {
          charges[att.rank] = charge;
        } else {
          charges.push_back(charge);  // round mode pushes in rank order
        }
        q.wall_micros += wall_share;
        if (observer) {
          SearchProgress progress;
          progress.chunks_read = t.chunks_read;
          progress.chunk_descriptors = loc.num_descriptors;
          progress.descriptors_processed = t.descriptors_scanned;
          progress.model_elapsed_micros = q.model_micros;
          progress.wall_elapsed_micros = q.wall_micros;
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
  // never from timing.
  constexpr size_t kUnranked = static_cast<size_t>(-1);
  std::vector<size_t> best_rank(num_chunks, kUnranked);  // per chunk id
  std::vector<uint32_t> order;
  std::vector<size_t> range_end;
  std::vector<ChunkAttachment> atts;
  using Demand = std::pair<uint32_t, ChunkAttachment>;  // (chunk id, query)
  auto run_schedule = [&](std::vector<Demand>& demands) -> Status {
    for (const auto& [chunk_id, att] : demands) {
      best_rank[chunk_id] = std::min(best_rank[chunk_id], att.rank);
    }
    // Stable: attachments of one chunk keep query-submission order.
    if (demands.size() > 1) {
      std::stable_sort(demands.begin(), demands.end(),
                       [&](const auto& a, const auto& b) {
                         if (best_rank[a.first] != best_rank[b.first]) {
                           return best_rank[a.first] < best_rank[b.first];
                         }
                         return a.first < b.first;
                       });
    }
    order.clear();
    range_end.clear();
    atts.clear();
    for (const auto& [chunk_id, att] : demands) {
      if (order.empty() || order.back() != chunk_id) {
        order.push_back(chunk_id);
        range_end.push_back(atts.size());
      }
      atts.push_back(att);
      range_end.back() = atts.size();
      best_rank[chunk_id] = kUnranked;  // reset only what this round touched
    }
    return process(order, range_end, atts);
  };

  std::vector<Demand> demands;
  if (stop.kind == StopRule::Kind::kMaxChunks) {
    // The scanned set is statically known: each query reads exactly its
    // first max_chunks ranked chunks, so the whole batch is one schedule
    // over the distinct demanded chunks — each fetched and decoded once no
    // matter how many queries want it. Scanning out of rank order is safe:
    // the result set's (distance, id) ordering makes the final top-k
    // independent of insertion order, and rank-indexed charge replay
    // restores the modeled timeline (see DESIGN.md).
    const size_t budget = std::min(stop.max_chunks, num_chunks);
    demands.reserve(nq * budget);
    for (QueryState& q : states) {
      q.scratch->charges.resize(budget);
      for (size_t r = 0; r < budget; ++r) {
        demands.emplace_back(q.scratch->rank_order[r],
                             ChunkAttachment{&q, r});
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
        const size_t r = q->next_rank;
        if (r == num_chunks) {
          // Scanned every chunk: exact by construction.
          if (stop.kind == StopRule::Kind::kExact) {
            q->result.telemetry.exact = true;
          }
          continue;
        }
        if (stop.kind == StopRule::Kind::kTimeBudget &&
            q->model_micros >= stop.budget_micros) {
          continue;
        }
        if (stop.kind == StopRule::Kind::kExact && q->result_set->full() &&
            s.suffix_min_bound[r] * (1.0 + stop.epsilon) >
                q->result_set->KthDistance()) {
          q->result.telemetry.exact = stop.epsilon == 0.0;
          continue;
        }
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
    for (size_t r = 0; r < t.chunks_read; ++r) {
      timeline.AddChunk(q.scratch->charges[r].first,
                        q.scratch->charges[r].second);
    }
    q.result.neighbors = q.result_set->Sorted();
    t.model_micros = q.model_micros;
    t.model_overlapped_micros = timeline.ElapsedMicros();
    t.wall_micros = nq == 1 ? call_watch.ElapsedMicros() : q.wall_micros;
    FinishTelemetry(t);
    results.push_back(std::move(q.result));
  }
  return results;
}

StatusOr<MethodResult> Searcher::SearchRange(std::span<const float> query,
                                             double radius,
                                             const StopRule& stop,
                                             SearchScratch* scratch) const {
  if (radius < 0.0) {
    return Status::InvalidArgument("radius must be non-negative");
  }
  QVT_RETURN_IF_ERROR(ValidateQuery(query, index_->dim()));
  SearchScratch local_scratch;
  SearchScratch& s = scratch != nullptr ? *scratch : local_scratch;
  const size_t num_chunks = index_->num_chunks();

  WallClock wall;
  Stopwatch stopwatch(&wall);

  // Rank chunks by centroid distance, as in Search().
  MethodResult result;
  QueryTelemetry& t = result.telemetry;
  int64_t model_micros = RankChunks(query, s);
  t.plan.model_micros = model_micros;
  t.plan.wall_micros = stopwatch.ElapsedMicros();

  OverlappedScanTimeline timeline(kModeledReadAheadDepth, model_micros);

  s.distances.resize(kScanBlock);  // scan scratch, reserved once per query
  for (size_t r = 0; r < num_chunks; ++r) {
    if (stop.kind == StopRule::Kind::kMaxChunks &&
        t.chunks_read >= stop.max_chunks) {
      break;
    }
    if (stop.kind == StopRule::Kind::kTimeBudget &&
        model_micros >= stop.budget_micros) {
      break;
    }
    if (stop.kind == StopRule::Kind::kExact &&
        s.suffix_min_bound[r] > radius) {
      t.exact = true;
      break;
    }
    // Skip chunks whose own bound proves they cannot intersect the ball
    // (cheap: the ranking is already computed; no I/O is charged).
    const uint32_t chunk_id = s.rank_order[r];
    const ChunkLocation& loc = index_->location(chunk_id);
    if (s.centroid_distance[chunk_id] - index_->radius(chunk_id) > radius) {
      continue;
    }

    std::shared_ptr<const ChunkData> cache_ref;
    const ChunkData* data = nullptr;
    bool from_cache = false;
    QVT_RETURN_IF_ERROR(FetchChunk(*index_, cache_, chunk_id, &s.chunk,
                                   &cache_ref, &data, &from_cache));

    // Blocked kernel scan with a fixed abandon threshold: the query radius
    // never shrinks, so every block prunes against the same bound.
    const size_t dim = data->dim;
    const double threshold = kernels::AbandonThreshold(radius);
    for (size_t b = 0; b < data->size(); b += kScanBlock) {
      const size_t bn = std::min(kScanBlock, data->size() - b);
      kernels::BatchSquaredDistanceAbandon(data->values.data() + b * dim, bn,
                                           dim, query, threshold,
                                           s.distances.data());
      for (size_t i = 0; i < bn; ++i) {
        const double sq = s.distances[i];
        if (sq == kernels::kAbandoned) continue;
        const double d = std::sqrt(sq);
        if (d <= radius) result.neighbors.push_back({data->ids[b + i], d});
      }
    }
    ++t.chunks_read;
    t.descriptors_scanned += data->size();
    t.max_probe_rows =
        std::max<uint64_t>(t.max_probe_rows, loc.num_descriptors);
    if (cache_ != nullptr) {
      from_cache ? ++t.cache_hits : ++t.cache_misses;
    }
    if (!from_cache) t.bytes_read += loc.num_pages * kPageSize;
    // Same accounting as Search(): resident chunks cost CPU only.
    model_micros +=
        from_cache
            ? cost_model_.ChunkCpuMicros(loc.num_descriptors)
            : cost_model_.ChunkTotalMicros(loc.num_pages,
                                           loc.num_descriptors);
    timeline.AddChunk(
        from_cache ? 0 : cost_model_.ChunkIoMicros(loc.num_pages),
        cost_model_.ChunkCpuMicros(loc.num_descriptors));
  }
  if (stop.kind == StopRule::Kind::kExact) t.exact = true;

  std::sort(result.neighbors.begin(), result.neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  t.model_micros = model_micros;
  t.model_overlapped_micros = timeline.ElapsedMicros();
  t.wall_micros = stopwatch.ElapsedMicros();
  FinishTelemetry(t);
  return result;
}

}  // namespace qvt

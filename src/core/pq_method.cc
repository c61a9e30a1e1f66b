#include "core/pq_method.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "descriptor/types.h"
#include "geometry/kernels.h"
#include "geometry/vec.h"
#include "storage/page.h"
#include "util/build_stats.h"
#include "util/clock.h"
#include "util/logging.h"

namespace qvt {
namespace {

/// ADC rows per AdcScanAbandon call — the same block size as the chunked
/// searcher's scan loop, so the pruning threshold tightens between blocks.
constexpr size_t kScanBlock = 256;

void SortByDistanceThenId(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

/// Binary search in a (key, value) vector sorted by key.
const uint32_t* LookupSorted(
    const std::vector<std::pair<uint32_t, uint32_t>>& table, uint32_t key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const std::pair<uint32_t, uint32_t>& e, uint32_t k) {
        return e.first < k;
      });
  if (it == table.end() || it->first != key) return nullptr;
  return &it->second;
}

}  // namespace

PqMethod::PqMethod(const MethodContext& context, PqMethodConfig config)
    : collection_(context.collection),
      index_(context.index),
      cache_(context.cache),
      env_(context.env),
      config_(std::move(config)) {}

std::string PqMethod::Describe() const {
  std::ostringstream out;
  out << "pq compressed first pass: m=" << config_.m << " x ksub="
      << config_.ksub << " (" << config_.m << " bytes/code)";
  if (prepared_) out << ", " << num_rows_ << " rows";
  if (!config_.file.empty()) out << ", file " << config_.file;
  if (config_.rerank == 0) {
    out << ", no rerank (ADC estimates)";
  } else {
    out << ", rerank " << config_.rerank
        << (index_ != nullptr ? " via chunk file" : " via collection");
  }
  return out.str();
}

Status PqMethod::PrepareCompressed() {
  if (!config_.file.empty()) {
    if (env_ == nullptr) {
      return Status::InvalidArgument(
          "pq file= requires an Env in the context");
    }
    const size_t expected_dim = collection_ != nullptr ? collection_->dim()
                                : index_ != nullptr   ? index_->dim()
                                                      : 0;
    BuildPhaseTimer timer("pq.open");
    QVT_ASSIGN_OR_RETURN(PqFileView view,
                         OpenPqFile(env_, config_.file, expected_dim));
    config_.m = view.m();
    config_.ksub = view.ksub();
    dim_ = view.dim();
    sub_dim_ = view.sub_dim();
    num_rows_ = view.num_vectors();
    file_view_ = std::move(view);
    codebooks_ = file_view_->codebooks();
    codes_ = file_view_->codes();
    ids_ = file_view_->ids();
    return Status::OK();
  }

  if (collection_ == nullptr) {
    return Status::InvalidArgument(
        "pq requires a collection in the context (or a file= parameter)");
  }
  PqConfig train_config{.m = config_.m,
                        .ksub = config_.ksub,
                        .max_iterations = config_.max_iterations,
                        .seed = config_.seed};
  // TrainPq / PqEncode charge the "pq.train" / "pq.encode" build phases
  // themselves.
  QVT_ASSIGN_OR_RETURN(trained_codebook_, TrainPq(*collection_, train_config));
  QVT_ASSIGN_OR_RETURN(trained_codes_,
                       PqEncode(*collection_, trained_codebook_));
  dim_ = trained_codebook_.dim;
  sub_dim_ = trained_codebook_.sub_dim();
  num_rows_ = collection_->size();
  codebooks_ = trained_codebook_.centroids;
  codes_ = trained_codes_;
  ids_ = collection_->Ids();
  return Status::OK();
}

Status PqMethod::PrepareRerankRouting() {
  if (config_.rerank == 0) return Status::OK();  // ADC-only: nothing to route
  if (index_ == nullptr && collection_ == nullptr) {
    return Status::InvalidArgument(
        "pq with rerank > 0 requires a chunk index or a collection in the "
        "context (pass rerank=0 for an ADC-only search)");
  }
  if (index_ != nullptr) {
    // One streaming pass over the chunk file: the id -> chunk table the
    // rerank uses to turn ADC survivors into a chunk read schedule.
    BuildPhaseTimer timer("pq.route");
    id_to_chunk_.reserve(num_rows_);
    ChunkData chunk;
    for (size_t i = 0; i < index_->num_chunks(); ++i) {
      QVT_RETURN_IF_ERROR(index_->ReadChunk(i, &chunk));
      for (const DescriptorId id : chunk.ids) {
        id_to_chunk_.emplace_back(id, static_cast<uint32_t>(i));
      }
    }
    std::sort(id_to_chunk_.begin(), id_to_chunk_.end());
  }
  if (file_view_.has_value() && collection_ != nullptr) {
    // File rows carry ids, not collection positions; the gather fallback
    // (outliers absent from the chunk file, or no index at all) needs the
    // id -> position table.
    id_to_position_.reserve(collection_->size());
    for (size_t pos = 0; pos < collection_->size(); ++pos) {
      id_to_position_.emplace_back(collection_->Id(pos),
                                   static_cast<uint32_t>(pos));
    }
    std::sort(id_to_position_.begin(), id_to_position_.end());
  }
  return Status::OK();
}

Status PqMethod::Prepare() {
  if (prepared_) return Status::OK();
  QVT_RETURN_IF_ERROR(PrepareCompressed());
  QVT_RETURN_IF_ERROR(PrepareRerankRouting());
  prepared_ = true;
  return Status::OK();
}

size_t PqMethod::ResidentBytes() const {
  return codebooks_.size() * sizeof(float) + codes_.size() +
         ids_.size() * sizeof(uint32_t) +
         id_to_chunk_.size() * sizeof(id_to_chunk_[0]) +
         id_to_position_.size() * sizeof(id_to_position_[0]);
}

void PqAdcFilterScan(std::span<const uint8_t> codes,
                     std::span<const DescriptorId> ids, size_t m, size_t ksub,
                     const double* table, KnnResultSet* filter) {
  static thread_local std::vector<double> adc;
  adc.resize(kScanBlock);
  const size_t num_rows = ids.size();
  for (size_t start = 0; start < num_rows; start += kScanBlock) {
    const size_t count = std::min(kScanBlock, num_rows - start);
    // ADC table entries are non-negative, so running > KthDistance()
    // proves the row cannot enter the filter — exactly safe, no margin.
    kernels::AdcScanAbandon(codes.data() + start * m, count, m, ksub, table,
                            filter->KthDistance(), adc.data());
    for (size_t i = 0; i < count; ++i) {
      if (adc[i] == kernels::kAbandoned) continue;
      filter->Insert(static_cast<DescriptorId>(start + i), adc[i],
                     ids[start + i]);
    }
  }
}

StatusOr<MethodResult> PqMethod::Search(
    std::span<const float> query, size_t k, const StopRule& stop,
    std::span<const DescriptorId> excluded) const {
  if (!prepared_) {
    return Status::FailedPrecondition("pq used before Prepare()");
  }
  QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
  if (k == 0) return Status::InvalidArgument("k must be positive");
  QVT_RETURN_IF_ERROR(ValidateQuery(query, dim_));

  WallClock wall;
  Stopwatch total(&wall);
  MethodResult result;
  QueryTelemetry& t = result.telemetry;

  // Plan: the per-query ADC table — one batched kernel sweep per subspace.
  static thread_local std::vector<double> table;
  {
    Stopwatch phase(&wall);
    table.resize(config_.m * config_.ksub);
    kernels::BuildAdcTable(codebooks_.data(), config_.m, config_.ksub,
                           sub_dim_, query, table.data());
    t.plan.wall_micros = phase.ElapsedMicros();
  }

  // Scan: early-abandoning ADC over the packed codes, block by block so the
  // threshold tightens as the filter fills. The filter keeps the best
  // max(R, k) rows by (ADC distance, row) — row order, not id order, since
  // ADC values are bit-identical across backends this stays deterministic.
  // Excluded rows are refused here, so the survivors are all live.
  const size_t depth = std::min(std::max(config_.rerank, k), num_rows_);
  KnnResultSet filter(depth, excluded);
  {
    Stopwatch phase(&wall);
    PqAdcFilterScan(codes_, ids_, config_.m, config_.ksub, table.data(),
                    &filter);
    t.scan.wall_micros = phase.ElapsedMicros();
  }
  t.index_entries_scanned = num_rows_;
  t.tombstones_filtered = filter.refused();

  // Refine: exact distances for the survivors, visited in ADC-score order.
  {
    Stopwatch phase(&wall);
    const std::vector<Neighbor> candidates = filter.Sorted();
    t.candidates_examined = candidates.size();
    if (config_.rerank == 0) {
      // Trust the ADC estimates: map rows back to ids, re-sort (rows and
      // ids order ties differently), report sqrt(ADC) distances.
      result.neighbors.reserve(candidates.size());
      for (const Neighbor& c : candidates) {
        result.neighbors.push_back({ids_[c.id], std::sqrt(c.distance)});
      }
      SortByDistanceThenId(&result.neighbors);
      t.bytes_read += candidates.size() * config_.m;
    } else {
      KnnResultSet exact(k);
      if (index_ != nullptr) {
        QVT_RETURN_IF_ERROR(RerankFromChunks(query, candidates, &exact, &t));
      } else {
        QVT_RETURN_IF_ERROR(
            RerankFromCollection(query, candidates, &exact, &t));
      }
      result.neighbors = exact.Sorted();
    }
    t.refine.wall_micros = phase.ElapsedMicros();
  }

  t.wall_micros = total.ElapsedMicros();
  return result;
}

Status PqMethod::RerankFromChunks(std::span<const float> query,
                                  std::span<const Neighbor> candidates,
                                  KnnResultSet* result_set,
                                  QueryTelemetry* telemetry) const {
  // Group candidate ids by chunk, chunks ordered by the best-scoring
  // candidate they hold (first appearance in the ascending-ADC list) — the
  // read schedule. Ids absent from the chunk file (outliers are never
  // written) fall back to the collection.
  std::vector<uint32_t> chunk_order;
  std::vector<std::vector<uint32_t>> wanted;
  std::unordered_map<uint32_t, size_t> chunk_slot;
  std::vector<Neighbor> missing;
  for (const Neighbor& c : candidates) {
    const uint32_t id = ids_[c.id];
    const uint32_t* chunk_id = LookupSorted(id_to_chunk_, id);
    if (chunk_id == nullptr) {
      missing.push_back(c);
      continue;
    }
    const auto [it, inserted] =
        chunk_slot.try_emplace(*chunk_id, chunk_order.size());
    if (inserted) {
      chunk_order.push_back(*chunk_id);
      wanted.emplace_back();
    }
    wanted[it->second].push_back(id);
  }
  for (std::vector<uint32_t>& w : wanted) std::sort(w.begin(), w.end());

  ChunkData local;
  for (size_t ci = 0; ci < chunk_order.size(); ++ci) {
    const uint32_t chunk_id = chunk_order[ci];
    std::shared_ptr<const ChunkData> cache_ref;
    const ChunkData* chunk = nullptr;
    bool from_cache = false;
    QVT_RETURN_IF_ERROR(FetchChunk(*index_, cache_, chunk_id, &local,
                                   &cache_ref, &chunk, &from_cache));
    if (from_cache) {
      ++telemetry->cache_hits;
    } else {
      ++telemetry->cache_misses;
    }
    ++telemetry->probes;
    ++telemetry->chunks_read;
    telemetry->bytes_read +=
        static_cast<uint64_t>(index_->location(chunk_id).num_pages) *
        kPageSize;
    telemetry->max_probe_rows =
        std::max(telemetry->max_probe_rows,
                 static_cast<uint64_t>(chunk->size()));

    const std::vector<uint32_t>& want = wanted[ci];
    size_t found = 0;
    for (size_t j = 0; j < chunk->size() && found < want.size(); ++j) {
      if (!std::binary_search(want.begin(), want.end(), chunk->ids[j])) {
        continue;
      }
      const double d = std::sqrt(vec::SquaredDistance(chunk->Vector(j), query));
      result_set->Insert(chunk->ids[j], d);
      ++found;
      ++telemetry->descriptors_scanned;
    }
  }

  if (!missing.empty()) {
    QVT_RETURN_IF_ERROR(
        RerankFromCollection(query, missing, result_set, telemetry));
  }
  return Status::OK();
}

Status PqMethod::RerankFromCollection(std::span<const float> query,
                                      std::span<const Neighbor> candidates,
                                      KnnResultSet* result_set,
                                      QueryTelemetry* telemetry) const {
  if (collection_ == nullptr) {
    return Status::FailedPrecondition(
        "pq rerank needs a chunk index or an in-memory collection");
  }
  static thread_local std::vector<uint32_t> positions;
  positions.clear();
  positions.reserve(candidates.size());
  for (const Neighbor& c : candidates) {
    if (!file_view_.has_value()) {
      // Trained in-process: code row i is collection position i.
      positions.push_back(static_cast<uint32_t>(c.id));
      continue;
    }
    const uint32_t id = ids_[c.id];
    const uint32_t* pos = LookupSorted(id_to_position_, id);
    if (pos == nullptr) {
      return Status::InvalidArgument(
          "pq file row id " + std::to_string(id) +
          " is absent from the context collection; rerank impossible");
    }
    positions.push_back(*pos);
  }

  static thread_local std::vector<double> wide_query;
  static thread_local std::vector<double> distances;
  wide_query.assign(query.begin(), query.end());
  distances.resize(positions.size());
  kernels::GatherSquaredDistance(collection_->RawData().data(), dim_,
                                 positions, wide_query, distances.data());
  for (size_t i = 0; i < positions.size(); ++i) {
    result_set->Insert(collection_->Id(positions[i]),
                       std::sqrt(distances[i]));
  }
  telemetry->descriptors_scanned += positions.size();
  telemetry->bytes_read += positions.size() * DescriptorRecordBytes(dim_);
  return Status::OK();
}

void RegisterPqMethod(MethodRegistry& registry) {
  QVT_CHECK_OK(registry.Register(
      {"pq",
       "product-quantization compressed first pass: SIMD ADC scan over "
       "packed in-memory codes, exact rerank of the top R through the "
       "chunk file",
       {/*exact=*/false, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        PqMethodConfig config;
        QVT_ASSIGN_OR_RETURN(config.m, options.GetSize("m", config.m));
        QVT_ASSIGN_OR_RETURN(config.ksub,
                             options.GetSize("ksub", config.ksub));
        QVT_ASSIGN_OR_RETURN(config.rerank,
                             options.GetSize("rerank", config.rerank));
        QVT_ASSIGN_OR_RETURN(
            config.max_iterations,
            options.GetSize("iters", config.max_iterations));
        QVT_ASSIGN_OR_RETURN(config.seed,
                             options.GetUint64("seed", config.seed));
        QVT_ASSIGN_OR_RETURN(config.file,
                             options.GetString("file", config.file));
        if (config.m == 0) {
          return Status::InvalidArgument("pq requires m >= 1");
        }
        if (config.ksub < 1 || config.ksub > 256) {
          return Status::InvalidArgument("pq requires ksub in [1, 256]");
        }
        if (config.file.empty() && context.collection == nullptr) {
          return Status::InvalidArgument(
              "pq requires a collection in the context (or a file= "
              "parameter)");
        }
        if (!config.file.empty() && context.env == nullptr) {
          return Status::InvalidArgument(
              "pq file= requires an Env in the context");
        }
        return std::unique_ptr<SearchMethod>(
            new PqMethod(context, std::move(config)));
      }));
}

}  // namespace qvt

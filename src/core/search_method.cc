#include "core/search_method.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>

#include "cluster/balanced_kmeans.h"
#include "core/exact_scan.h"
#include "core/lsh.h"
#include "core/medrank.h"
#include "core/pq_method.h"
#include "core/psphere.h"
#include "core/va_file.h"
#include "descriptor/types.h"
#include "storage/index_file.h"
#include "storage/page.h"
#include "util/clock.h"
#include "util/logging.h"

namespace qvt {

// --- MethodOptions ----------------------------------------------------------

StatusOr<MethodOptions> MethodOptions::Parse(std::string_view spec) {
  MethodOptions options;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("method parameter '" + std::string(item) +
                                     "' is not key=value");
    }
    options.values_[std::string(item.substr(0, eq))] =
        std::string(item.substr(eq + 1));
  }
  return options;
}

StatusOr<std::string> MethodOptions::Raw(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound(key);
  consumed_.insert(key);
  return it->second;
}

StatusOr<size_t> MethodOptions::GetSize(const std::string& key,
                                        size_t default_value) {
  auto raw = Raw(key);
  if (!raw.ok()) return default_value;
  size_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc() || ptr != raw->data() + raw->size()) {
    return Status::InvalidArgument("parameter " + key + "='" + *raw +
                                   "' is not a non-negative integer");
  }
  return value;
}

StatusOr<uint64_t> MethodOptions::GetUint64(const std::string& key,
                                            uint64_t default_value) {
  QVT_ASSIGN_OR_RETURN(const size_t value, GetSize(key, default_value));
  return static_cast<uint64_t>(value);
}

StatusOr<double> MethodOptions::GetDouble(const std::string& key,
                                          double default_value) {
  auto raw = Raw(key);
  if (!raw.ok()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (raw->empty() || end != raw->c_str() + raw->size()) {
    return Status::InvalidArgument("parameter " + key + "='" + *raw +
                                   "' is not a number");
  }
  return value;
}

StatusOr<std::string> MethodOptions::GetString(const std::string& key,
                                               std::string default_value) {
  auto raw = Raw(key);
  if (!raw.ok()) return default_value;
  return *raw;
}

Status MethodOptions::CheckAllConsumed() const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key)) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += key;
  }
  if (unknown.empty()) return Status::OK();
  return Status::InvalidArgument("unknown method parameter(s): " + unknown);
}

// --- SearchMethod shared helpers -------------------------------------------

Status SearchMethod::RequireExactStop(const StopRule& stop,
                                      std::string_view name) {
  if (stop.kind == StopRule::Kind::kExact && stop.epsilon == 0.0) {
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(name) +
                                 " does not support approximate stop rules");
}

Status ValidateQuery(std::span<const float> query, size_t dim) {
  if (query.size() != dim) {
    return Status::InvalidArgument(
        "vector has " + std::to_string(query.size()) +
        " dimensions, expected " + std::to_string(dim));
  }
  for (size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(query[d])) {
      return Status::InvalidArgument("vector coordinate " +
                                     std::to_string(d) + " is not finite");
    }
  }
  return Status::OK();
}

StatusOr<std::vector<MethodResult>> SearchMethod::SearchShared(
    std::span<const std::span<const float>>, size_t, const StopRule&,
    SharedScanStats*, std::span<const DescriptorId>,
    std::span<const double>) const {
  return Status::Unimplemented(std::string(name()) +
                               " does not support shared scans");
}

namespace {

Status RequirePrepared(bool prepared, std::string_view name) {
  if (prepared) return Status::OK();
  return Status::FailedPrecondition(std::string(name) +
                                    " used before Prepare()");
}

/// Sorts into the unified (distance, id) result contract. Most methods
/// already emit this order; Medrank natively emits rank order.
void SortNeighbors(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

// --- chunked: the paper's §4.3 searcher over the chunk index ---------------

class ChunkedMethod final : public SearchMethod {
 public:
  explicit ChunkedMethod(const MethodContext& context)
      : searcher_(context.index, context.cost_model, context.cache) {}

  std::string_view name() const override { return "chunked"; }

  std::string Describe() const override {
    const ChunkIndex& index = *searcher_.index();
    std::ostringstream out;
    out << "chunked §4.3 searcher: " << index.num_chunks() << " chunks, dim "
        << index.dim();
    return out.str();
  }

  Status Prepare() override {
    // The chunk index was built before the context existed; nothing heavy
    // remains, but the contract's Prepare-before-Search gate still applies.
    prepared_ = true;
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(prepared_, name()));
    static thread_local SearchScratch scratch;
    return searcher_.Search(query, k, stop, nullptr, &scratch, excluded);
  }

  bool SupportsSharedScan() const override { return true; }

  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, SharedScanStats* stats,
      std::span<const DescriptorId> excluded,
      std::span<const double> bounds) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(prepared_, name()));
    return searcher_.SearchShared(queries, k, stop, stats, excluded, bounds);
  }

  size_t ResidentBytes() const override {
    // Only the index entries stay resident (centroids, radii, locations,
    // rectangles); chunk payloads live on disk and pass through the cache.
    const ChunkIndex& index = *searcher_.index();
    return index.num_chunks() * IndexEntryBytes(index.dim());
  }

 private:
  Searcher searcher_;
  bool prepared_ = false;
};

// --- exact-scan: the sequential-scan reference ------------------------------

class ExactScanMethod final : public SearchMethod {
 public:
  explicit ExactScanMethod(const MethodContext& context)
      : collection_(context.collection) {}

  std::string_view name() const override { return "exact-scan"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "exact sequential scan: " << collection_->size()
        << " descriptors, dim " << collection_->dim();
    return out.str();
  }

  Status Prepare() override {
    // Scans need no build, but the Prepare-before-Search gate is uniform.
    prepared_ = true;
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(prepared_, name()));
    QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
    if (k == 0) return Status::InvalidArgument("k must be positive");
    QVT_RETURN_IF_ERROR(ValidateQuery(query, collection_->dim()));
    WallClock wall;
    Stopwatch stopwatch(&wall);
    MethodResult result;
    result.neighbors = ExactScan(*collection_, query, k, excluded,
                                 &result.telemetry.tombstones_filtered);
    FillTelemetry(stopwatch.ElapsedMicros(), &result.telemetry);
    return result;
  }

 private:
  void FillTelemetry(int64_t wall_micros, QueryTelemetry* t) const {
    const size_t n = collection_->size();
    t->wall_micros = wall_micros;
    t->scan.wall_micros = wall_micros;
    t->candidates_examined = n;
    t->descriptors_scanned = n;
    t->bytes_read = n * DescriptorRecordBytes(collection_->dim());
    t->exact = true;
  }

  const Collection* collection_;
  bool prepared_ = false;
};

// --- lsh: multi-table p-stable LSH (§6 related work) ------------------------

class LshMethod final : public SearchMethod {
 public:
  LshMethod(const MethodContext& context, const LshConfig& config)
      : collection_(context.collection), config_(config) {}

  std::string_view name() const override { return "lsh"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "LSH: " << config_.num_tables << " tables x "
        << config_.hashes_per_table << " hashes, bucket width "
        << (index_.has_value() ? index_->bucket_width()
                               : config_.bucket_width);
    return out.str();
  }

  Status Prepare() override {
    if (!index_.has_value()) {
      index_.emplace(LshIndex::Build(collection_, config_));
    }
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(index_.has_value(), name()));
    QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
    MethodResult result;
    QVT_ASSIGN_OR_RETURN(result.neighbors,
                         index_->Search(query, k, &result.telemetry, excluded));
    return result;
  }

  size_t ResidentBytes() const override {
    return index_.has_value() ? index_->ResidentBytes() : 0;
  }

 private:
  const Collection* collection_;
  LshConfig config_;
  std::optional<LshIndex> index_;
};

// --- va-file: vector-approximation file (§6 related work) -------------------

class VaFileMethod final : public SearchMethod {
 public:
  VaFileMethod(const MethodContext& context, const VaFileConfig& config,
               size_t max_refinements)
      : collection_(context.collection),
        config_(config),
        max_refinements_(max_refinements) {}

  std::string_view name() const override { return "va-file"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "VA-file: " << config_.bits_per_dim << " bits/dim";
    if (max_refinements_ != std::numeric_limits<size_t>::max()) {
      out << ", refinement budget " << max_refinements_;
    } else {
      out << ", exact refinement";
    }
    return out.str();
  }

  Status Prepare() override {
    if (!va_.has_value()) {
      va_.emplace(VaFile::Build(collection_, config_));
    }
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(va_.has_value(), name()));
    QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
    MethodResult result;
    QVT_ASSIGN_OR_RETURN(
        result.neighbors,
        va_->SearchApproximate(query, k, max_refinements_, &result.telemetry,
                               excluded));
    return result;
  }

  size_t ResidentBytes() const override {
    return va_.has_value() ? va_->ResidentBytes() : 0;
  }

 private:
  const Collection* collection_;
  VaFileConfig config_;
  size_t max_refinements_;
  std::optional<VaFile> va_;
};

// --- medrank: rank aggregation over random lines (§6 related work) ----------

class MedrankMethod final : public SearchMethod {
 public:
  MedrankMethod(const MethodContext& context, const MedrankConfig& config)
      : collection_(context.collection), config_(config) {}

  std::string_view name() const override { return "medrank"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "Medrank: " << config_.num_lines << " lines, min frequency "
        << config_.min_frequency;
    return out.str();
  }

  Status Prepare() override {
    if (!index_.has_value()) {
      index_.emplace(MedrankIndex::Build(collection_, config_));
    }
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(index_.has_value(), name()));
    QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
    MethodResult result;
    QVT_ASSIGN_OR_RETURN(result.neighbors,
                         index_->Search(query, k, &result.telemetry, excluded));
    // The native API emits rank order; the unified contract is (distance,
    // id) like every other method.
    SortNeighbors(&result.neighbors);
    return result;
  }

  size_t ResidentBytes() const override {
    return index_.has_value() ? index_->ResidentBytes() : 0;
  }

 private:
  const Collection* collection_;
  MedrankConfig config_;
  std::optional<MedrankIndex> index_;
};

// --- psphere: replicated hypersphere scan (§6 related work) -----------------

class PSphereMethod final : public SearchMethod {
 public:
  PSphereMethod(const MethodContext& context, const PSphereConfig& config)
      : collection_(context.collection), config_(config) {}

  std::string_view name() const override { return "psphere"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "P-Sphere tree: " << config_.num_spheres << " spheres, fill "
        << config_.fill_factor;
    if (tree_.has_value()) {
      out << ", replication " << tree_->ReplicationFactor();
    }
    return out.str();
  }

  Status Prepare() override {
    if (collection_->empty()) {
      return Status::InvalidArgument(
          "psphere requires a non-empty collection");
    }
    if (!tree_.has_value()) {
      tree_.emplace(PSphereTree::Build(collection_, config_));
    }
    return Status::OK();
  }

  StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k, const StopRule& stop,
      std::span<const DescriptorId> excluded) const override {
    QVT_RETURN_IF_ERROR(RequirePrepared(tree_.has_value(), name()));
    QVT_RETURN_IF_ERROR(RequireExactStop(stop, name()));
    MethodResult result;
    QVT_ASSIGN_OR_RETURN(result.neighbors,
                         tree_->Search(query, k, &result.telemetry, excluded));
    return result;
  }

  size_t ResidentBytes() const override {
    return tree_.has_value() ? tree_->ResidentBytes() : 0;
  }

 private:
  const Collection* collection_;
  PSphereConfig config_;
  std::optional<PSphereTree> tree_;
};

// --- built-in factories -----------------------------------------------------

Status RequireCollection(const MethodContext& context,
                         std::string_view name) {
  if (context.collection != nullptr) return Status::OK();
  return Status::InvalidArgument(std::string(name) +
                                 " requires a collection in the context");
}

/// Shard builder of the chunked method: cluster the subset with the
/// balance-constrained k-means of PR 6 (so merge-built shards cannot
/// reintroduce the giant-chunk tail pathology), write the chunk + index
/// files under context.artifact_base, and open the searcher over them. On
/// reuse the files are opened as-is (ChunkIndex::Open). Deterministic at
/// any build thread count — the chunker and ChunkIndex::Build both are.
StatusOr<MethodShard> BuildChunkedShard(const ShardBuildContext& context,
                                        MethodOptions& options) {
  if (context.env == nullptr || context.artifact_base.empty()) {
    return Status::InvalidArgument(
        "chunked shard build requires env and artifact_base");
  }
  const Collection& data = *context.data;
  if (data.empty()) {
    return Status::InvalidArgument(
        "chunked shard build requires a non-empty subset");
  }
  MethodShard shard;
  shard.data = context.data;
  const ChunkIndexPaths paths = ChunkIndexPaths::ForBase(context.artifact_base);
  if (context.reuse_artifacts) {
    QVT_ASSIGN_OR_RETURN(ChunkIndex index,
                         ChunkIndex::Open(context.env, paths, data.dim()));
    shard.index = std::make_unique<ChunkIndex>(std::move(index));
  } else {
    BalancedKMeansConfig config;
    const size_t target = std::max<size_t>(1, context.target_chunk_size);
    config.base.num_clusters = (data.size() + target - 1) / target;
    BalancedKMeansChunker chunker(config);
    QVT_ASSIGN_OR_RETURN(ChunkingResult chunking, chunker.FormChunks(data));
    QVT_ASSIGN_OR_RETURN(ChunkIndex index,
                         ChunkIndex::Build(data, chunking, context.env, paths));
    shard.index = std::make_unique<ChunkIndex>(std::move(index));
  }
  MethodContext method_context;
  method_context.collection = shard.data.get();
  method_context.index = shard.index.get();
  method_context.cost_model = context.cost_model;
  method_context.cache = context.cache;
  method_context.env = context.env;
  shard.method = std::make_unique<ChunkedMethod>(method_context);
  (void)options;
  return shard;
}

MethodRegistry BuildGlobalRegistry() {
  MethodRegistry registry;

  QVT_CHECK_OK(registry.Register(
      {"chunked",
       "the paper's chunk-index searcher (§4.3): rank chunks by centroid "
       "distance, scan under a stop rule",
       {/*exact=*/true, /*stop_rules=*/true, /*disk_model=*/true}},
      [](const MethodContext& context, MethodOptions&)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        if (context.index == nullptr) {
          return Status::InvalidArgument(
              "chunked requires a chunk index in the context");
        }
        return std::unique_ptr<SearchMethod>(new ChunkedMethod(context));
      },
      BuildChunkedShard));

  QVT_CHECK_OK(registry.Register(
      {"exact-scan",
       "exact sequential scan of the collection — the ground-truth "
       "reference (§5.4)",
       {/*exact=*/true, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions&)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_RETURN_IF_ERROR(RequireCollection(context, "exact-scan"));
        return std::unique_ptr<SearchMethod>(new ExactScanMethod(context));
      }));

  QVT_CHECK_OK(registry.Register(
      {"lsh",
       "multi-table p-stable LSH (Gionis et al., VLDB'99; related work §6)",
       {/*exact=*/false, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_RETURN_IF_ERROR(RequireCollection(context, "lsh"));
        LshConfig config;
        QVT_ASSIGN_OR_RETURN(config.num_tables,
                             options.GetSize("num_tables", config.num_tables));
        QVT_ASSIGN_OR_RETURN(
            config.hashes_per_table,
            options.GetSize("hashes_per_table", config.hashes_per_table));
        QVT_ASSIGN_OR_RETURN(
            config.bucket_width,
            options.GetDouble("bucket_width", config.bucket_width));
        QVT_ASSIGN_OR_RETURN(config.seed,
                             options.GetUint64("seed", config.seed));
        if (config.num_tables == 0 || config.hashes_per_table == 0) {
          return Status::InvalidArgument(
              "lsh requires num_tables >= 1 and hashes_per_table >= 1");
        }
        return std::unique_ptr<SearchMethod>(new LshMethod(context, config));
      }));

  QVT_CHECK_OK(registry.Register(
      {"va-file",
       "vector-approximation file (Weber et al., VLDB'98), optionally with "
       "the EDBT'00 refinement interrupt",
       {/*exact=*/true, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_RETURN_IF_ERROR(RequireCollection(context, "va-file"));
        VaFileConfig config;
        QVT_ASSIGN_OR_RETURN(
            config.bits_per_dim,
            options.GetSize("bits_per_dim", config.bits_per_dim));
        if (config.bits_per_dim < 1 || config.bits_per_dim > 8) {
          return Status::InvalidArgument("bits_per_dim must be in [1, 8]");
        }
        // 0 = unlimited refinements (the exact two-phase algorithm).
        QVT_ASSIGN_OR_RETURN(const size_t budget,
                             options.GetSize("max_refinements", 0));
        const size_t max_refinements =
            budget == 0 ? std::numeric_limits<size_t>::max() : budget;
        return std::unique_ptr<SearchMethod>(
            new VaFileMethod(context, config, max_refinements));
      }));

  QVT_CHECK_OK(registry.Register(
      {"medrank",
       "rank aggregation over random projection lines (Fagin et al., "
       "SIGMOD'03; related work §6)",
       {/*exact=*/false, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_RETURN_IF_ERROR(RequireCollection(context, "medrank"));
        MedrankConfig config;
        QVT_ASSIGN_OR_RETURN(config.num_lines,
                             options.GetSize("num_lines", config.num_lines));
        QVT_ASSIGN_OR_RETURN(
            config.min_frequency,
            options.GetDouble("min_frequency", config.min_frequency));
        QVT_ASSIGN_OR_RETURN(config.seed,
                             options.GetUint64("seed", config.seed));
        if (config.num_lines == 0 || config.min_frequency <= 0.0 ||
            config.min_frequency > 1.0) {
          return Status::InvalidArgument(
              "medrank requires num_lines >= 1 and min_frequency in (0, 1]");
        }
        return std::unique_ptr<SearchMethod>(
            new MedrankMethod(context, config));
      }));

  QVT_CHECK_OK(registry.Register(
      {"psphere",
       "P-Sphere tree: replicated hyperspheres, one-sphere probe "
       "(Goldstein & Ramakrishnan, VLDB'00; related work §6)",
       {/*exact=*/false, /*stop_rules=*/false, /*disk_model=*/false}},
      [](const MethodContext& context, MethodOptions& options)
          -> StatusOr<std::unique_ptr<SearchMethod>> {
        QVT_RETURN_IF_ERROR(RequireCollection(context, "psphere"));
        PSphereConfig config;
        QVT_ASSIGN_OR_RETURN(
            config.num_spheres,
            options.GetSize("num_spheres", config.num_spheres));
        QVT_ASSIGN_OR_RETURN(
            config.fill_factor,
            options.GetDouble("fill_factor", config.fill_factor));
        QVT_ASSIGN_OR_RETURN(config.seed,
                             options.GetUint64("seed", config.seed));
        if (config.num_spheres == 0 || config.fill_factor < 1.0) {
          return Status::InvalidArgument(
              "psphere requires num_spheres >= 1 and fill_factor >= 1");
        }
        return std::unique_ptr<SearchMethod>(
            new PSphereMethod(context, config));
      }));

  RegisterPqMethod(registry);

  return registry;
}

}  // namespace

// --- MethodRegistry ---------------------------------------------------------

MethodRegistry& MethodRegistry::Global() {
  static MethodRegistry* registry = new MethodRegistry(BuildGlobalRegistry());
  return *registry;
}

Status MethodRegistry::Register(MethodInfo info, MethodFactory factory,
                                ShardFactory shard_factory) {
  if (info.name.empty()) {
    return Status::InvalidArgument(
        "method registration requires a non-empty name");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("method '" + info.name +
                                   "' registered without a factory");
  }
  const std::string name = info.name;
  const auto [it, inserted] = entries_.try_emplace(
      name,
      Entry{std::move(info), std::move(factory), std::move(shard_factory)});
  if (!inserted) {
    return Status::AlreadyExists("method '" + name +
                                 "' is already registered; registration "
                                 "never overwrites an existing entry");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<SearchMethod>> MethodRegistry::Create(
    const std::string& name, const MethodContext& context,
    std::string_view params) const {
  if (name.empty()) {
    return Status::InvalidArgument("method name must be non-empty");
  }
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound("unknown search method '" + name +
                            "' (registered: " + known + ")");
  }
  QVT_ASSIGN_OR_RETURN(MethodOptions options, MethodOptions::Parse(params));
  QVT_ASSIGN_OR_RETURN(std::unique_ptr<SearchMethod> method,
                       it->second.factory(context, options));
  QVT_RETURN_IF_ERROR(options.CheckAllConsumed());
  return method;
}

StatusOr<MethodInfo> MethodRegistry::Info(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound("unknown search method '" + name +
                            "' (registered: " + known + ")");
  }
  return it->second.info;
}

StatusOr<MethodShard> MethodRegistry::BuildShard(
    const std::string& name, const ShardBuildContext& context,
    std::string_view params) const {
  if (name.empty()) {
    return Status::InvalidArgument("method name must be non-empty");
  }
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound("unknown search method '" + name +
                            "' (registered: " + known + ")");
  }
  if (context.data == nullptr) {
    return Status::InvalidArgument("shard build requires a descriptor subset");
  }
  QVT_ASSIGN_OR_RETURN(MethodOptions options, MethodOptions::Parse(params));
  MethodShard shard;
  if (it->second.shard_factory != nullptr) {
    QVT_ASSIGN_OR_RETURN(shard, it->second.shard_factory(context, options));
  } else {
    // Generic collection-only path: the method is constructed over the
    // subset and does its whole build at Prepare, exactly as statically —
    // which is what makes a compacted dynamic index answer bit-identically
    // to a static build over the same rows.
    MethodContext method_context;
    method_context.collection = context.data.get();
    method_context.cost_model = context.cost_model;
    method_context.cache = context.cache;
      method_context.env = context.env;
    QVT_ASSIGN_OR_RETURN(shard.method,
                         it->second.factory(method_context, options));
    shard.data = context.data;
  }
  QVT_RETURN_IF_ERROR(options.CheckAllConsumed());
  QVT_RETURN_IF_ERROR(shard.method->Prepare());
  return shard;
}

std::vector<MethodInfo> MethodRegistry::List() const {
  std::vector<MethodInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) infos.push_back(entry.info);
  return infos;
}

}  // namespace qvt

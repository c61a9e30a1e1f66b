#ifndef QVT_CORE_SEARCH_METHOD_H_
#define QVT_CORE_SEARCH_METHOD_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/chunk_index.h"
#include "core/result_set.h"
#include "core/searcher.h"
#include "core/telemetry.h"
#include "descriptor/collection.h"
#include "storage/chunk_cache.h"
#include "storage/disk_cost_model.h"
#include "storage/prefetcher.h"
#include "util/statusor.h"

namespace qvt {

/// Static capability flags of a search method, known without constructing
/// it (carried by the registry for listings).
struct MethodCapabilities {
  /// Can prove exactness (telemetry.exact may come back true).
  bool exact = false;
  /// Supports SearchRange (epsilon-neighbor queries).
  bool range_search = false;
  /// Honors approximate StopRules (kMaxChunks / kTimeBudget / epsilon).
  /// Methods without this reject any stop other than StopRule::Exact().
  bool stop_rules = false;
  /// Charges the DiskCostModel (telemetry model clocks are meaningful).
  bool disk_model = false;
};

/// Everything a method factory may draw on. Borrowed pointers must outlive
/// the constructed method. `index` is only needed by the chunked method and
/// the pq method's chunk-file rerank; `env` only by methods that open their
/// own files (pq with a `file=` parameter); every other method works from
/// `collection` alone.
struct MethodContext {
  const Collection* collection = nullptr;
  const ChunkIndex* index = nullptr;
  DiskCostModel cost_model;
  ChunkCache* cache = nullptr;
  /// Unread; kept only because perfbench/ spells it.
  PrefetcherOptions prefetch;
  Env* env = nullptr;
};

/// String-keyed method parameters ("num_tables=8,seed=42"). Getters record
/// which keys were consumed so the registry can reject unknown ones — a
/// typo'd parameter fails loudly instead of silently running defaults.
class MethodOptions {
 public:
  MethodOptions() = default;

  /// Parses a comma-separated key=value list. Empty spec is valid.
  static StatusOr<MethodOptions> Parse(std::string_view spec);

  StatusOr<size_t> GetSize(const std::string& key, size_t default_value);
  StatusOr<double> GetDouble(const std::string& key, double default_value);
  StatusOr<uint64_t> GetUint64(const std::string& key, uint64_t default_value);
  StatusOr<std::string> GetString(const std::string& key,
                                  std::string default_value);

  /// OK when every supplied key was consumed by a getter; InvalidArgument
  /// naming the leftovers otherwise.
  Status CheckAllConsumed() const;

 private:
  StatusOr<std::string> Raw(const std::string& key);

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

/// Shared input guard of every query entry point (all methods, the
/// searcher's k-NN and range paths, the dynamic layer and its inserts): OK
/// iff `query` has `dim` coordinates and every one is finite;
/// InvalidArgument otherwise. A NaN or infinite coordinate would make every
/// distance NaN or infinite, so no answer — and no exactness verdict —
/// could be trusted.
Status ValidateQuery(std::span<const float> query, size_t dim);

/// The polymorphic face of every search method in the repo: the paper's
/// chunked searcher (§4.3), the exact sequential scan it is scored against,
/// and the four related-work indexes of §6 (LSH, VA-file, Medrank,
/// P-Sphere). One interface, one telemetry schema, one result contract —
/// BatchSearcher, the bench runner, and qvt_tool drive any of them through
/// this type.
///
/// Contract:
///  * Prepare() does the expensive build (hash tables, sorted projections,
///    sphere assignment); construction through the registry is cheap.
///  * Search()/SearchRange() are const and thread-safe after Prepare() —
///    BatchSearcher calls them from many threads concurrently.
///  * Neighbors come back ascending by (distance, id), bit-identical to the
///    underlying method's direct call (tested).
///  * Methods without stop-rule support fail InvalidArgument on any stop
///    other than StopRule::Exact(); methods without range support fail
///    Unimplemented on SearchRange.
class SearchMethod {
 public:
  virtual ~SearchMethod() = default;

  /// The registry key this method was constructed under.
  virtual std::string_view name() const = 0;
  /// One-line human description including resolved parameters.
  virtual std::string Describe() const = 0;
  virtual MethodCapabilities capabilities() const = 0;

  /// Builds the method's data structures. Idempotent; must be called (and
  /// must succeed) before Search.
  virtual Status Prepare() = 0;

  /// k-nearest-neighbor query under `stop`.
  virtual StatusOr<MethodResult> Search(
      std::span<const float> query, size_t k,
      const StopRule& stop = StopRule::Exact()) const = 0;

  /// Epsilon-neighbor (range) query. Default: Unimplemented.
  virtual StatusOr<MethodResult> SearchRange(std::span<const float> query,
                                             double radius,
                                             const StopRule& stop) const;

  /// True when this method implements SearchShared — chunk-major batched
  /// execution where one pass over each storage unit serves many queries
  /// (the chunked searcher and the pq ADC scan). BatchSearcher consults
  /// this to pick the execution mode; methods that return false simply run
  /// query-major.
  virtual bool SupportsSharedScan() const { return false; }

  /// Answers all `queries` (k neighbors each, under `stop`) through the
  /// method's shared-scan executor. Per-query results are bit-identical to
  /// Search() per query — same neighbors, same exact verdicts, same
  /// as-if-alone counters and model clocks (see DESIGN.md "Chunk-major
  /// batched execution"); `stats`, when non-null, accumulates the batch's
  /// coalescing ledger. Default: Unimplemented (check SupportsSharedScan).
  virtual StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, size_t num_threads,
      SharedScanStats* stats) const;

  /// Bytes of RAM the prepared method holds resident beyond the collection
  /// itself (hash tables, sorted projections, centroids, packed codes, ...).
  /// The footprint `qvt_tool info` reports per method. Default 0: the
  /// method holds no auxiliary structures (exact scan).
  virtual size_t ResidentBytes() const { return 0; }

 protected:
  /// Shared guard: OK iff `stop` is the plain exact rule. Methods that do
  /// not interpret stop rules call this first.
  static Status RequireExactStop(const StopRule& stop, std::string_view name);
};

/// A registry entry: what the method is, before any instance exists.
struct MethodInfo {
  std::string name;
  std::string summary;
  MethodCapabilities capabilities;
};

using MethodFactory = std::function<StatusOr<std::unique_ptr<SearchMethod>>(
    const MethodContext& context, MethodOptions& options)>;

/// Everything a shard build may draw on: the descriptor subset the shard is
/// built over (shared ownership — the built method borrows it), plus the
/// environment and path prefix for methods that materialize on-disk
/// artifacts (the chunked method's chunk + index files).
struct ShardBuildContext {
  /// The rows of this shard, in their insertion order. Required.
  std::shared_ptr<const Collection> data;
  /// Filesystem for artifact-producing methods; may be null for the
  /// memory-resident ones.
  Env* env = nullptr;
  /// Base path for this shard's on-disk artifacts (the chunked method
  /// writes artifact_base + ".chunks" / ".index").
  std::string artifact_base;
  /// True to open artifacts already on disk (a reopened dynamic index)
  /// instead of building them. The builder still verifies they exist.
  bool reuse_artifacts = false;
  /// Rows per chunk the chunked shard builder targets when clustering.
  size_t target_chunk_size = 256;
  DiskCostModel cost_model;
  ChunkCache* cache = nullptr;
};

/// A built shard: the descriptor subset it answers for, the optional chunk
/// index artifact, and the Prepare()d method over them. The method borrows
/// `data` and `index`, so a MethodShard must be moved as a unit.
struct MethodShard {
  std::shared_ptr<const Collection> data;
  std::unique_ptr<ChunkIndex> index;  ///< engaged for artifact-backed methods
  std::unique_ptr<SearchMethod> method;
};

/// Builds a MethodShard for one method over one descriptor subset. Entries
/// without a custom factory use the registry's generic collection-only path.
using ShardFactory = std::function<StatusOr<MethodShard>(
    const ShardBuildContext& context, MethodOptions& options)>;

/// Name -> factory map for search methods. The seven built-ins ("chunked",
/// "exact-scan", "lsh", "va-file", "medrank", "psphere", "pq") self-register
/// into Global(); tools and benches construct any method from a config
/// string.
class MethodRegistry {
 public:
  /// The process-wide registry, with all built-ins registered.
  static MethodRegistry& Global();

  /// Registers a method. Fails with InvalidArgument on an empty name or a
  /// null factory and AlreadyExists on a duplicate name — a second
  /// registration never silently overwrites the first. `shard_factory` is
  /// optional: methods that leave it null get the generic collection-only
  /// shard build path in BuildShard.
  Status Register(MethodInfo info, MethodFactory factory,
                  ShardFactory shard_factory = nullptr);

  /// Constructs (but does not Prepare) the named method. `params` is a
  /// comma-separated key=value list; unknown keys are rejected. An empty or
  /// unregistered name fails with a Status listing the registered names.
  StatusOr<std::unique_ptr<SearchMethod>> Create(
      const std::string& name, const MethodContext& context,
      std::string_view params = "") const;

  /// The registry entry of the named method (NotFound when absent).
  StatusOr<MethodInfo> Info(const std::string& name) const;

  /// Builds a Prepare()d shard of the named method over context.data — the
  /// shard-construction entry point the dynamic layer rebuilds merges
  /// through. Methods with a custom ShardFactory (chunked: cluster the
  /// subset, write chunk + index files under context.artifact_base) use
  /// it; every other method is constructed over the subset alone and does
  /// its build at Prepare, exactly as in the static path.
  StatusOr<MethodShard> BuildShard(const std::string& name,
                                   const ShardBuildContext& context,
                                   std::string_view params = "") const;

  /// All registered methods, sorted by name.
  std::vector<MethodInfo> List() const;

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

 private:
  struct Entry {
    MethodInfo info;
    MethodFactory factory;
    ShardFactory shard_factory;  ///< null: generic collection-only path
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace qvt

#endif  // QVT_CORE_SEARCH_METHOD_H_

// qvt_tool — command-line front end for the library.
//
//   qvt_tool generate --out col.desc [--images 200] [--descriptors 100]
//                     [--modes 20] [--seed 42] [--build-threads N]
//                     [--heavy-mode-weight 0.0]
//   qvt_tool build    --collection col.desc --out idx
//                     [--chunker sr|rr|kmeans|balanced-kmeans|bkm|bag]
//                     [--chunk-size 1000] [--max-chunk-pop 0]
//                     [--build-threads N] [--pq-out codes.pqc]
//                     [--pq-m 8] [--pq-ksub 256] [--pq-iters 25]
//                     [--pq-seed 7]
//   qvt_tool info     [--index idx] [--dyn base]
//                     [--pq codes.pqc] [--cache-pages 0]
//                     [--collection col.desc (per-method resident memory)]
//   qvt_tool fsck     [--index idx] [--dyn base] [--pq codes.pqc]
//                     [--max-chunk-pop 0]
//   qvt_tool tail     --collection col.desc --index idx [--queries 200]
//                     [--k 10] [--budgets 1,2,4,8,0] [--threads 1]
//                     [--seed 7] [--max-chunk-pop 0] [--label chunked]
//                     [--json BENCH_tail.json]
//   qvt_tool methods  [--names 1]
//   qvt_tool search   --collection col.desc --index idx --query-pos 123
//                     [--k 10] [--max-chunks 0 (=exact)]
//                     [--method chunked] [--method-params "key=val,..."]
//   qvt_tool batch    --collection col.desc --index idx [--queries 1000]
//                     [--k 10] [--threads 1] [--max-chunks 0] [--seed 7]
//                     [--cache-pages 0] [--verify 0]
//                     [--method chunked] [--method-params "key=val,..."]
//                     [--check-recall 0.0] [--shared-scan on|off]
//   qvt_tool ingest   --dyn base --collection col.desc [--offset 0]
//                     [--count 0 (=rest)] [--delete-every 0]
//                     [--method chunked] [--method-params "..."]
//                     [--buffer-capacity 1024] [--scale-factor 4]
//                     [--policy tiering|leveling] [--chunk-size 256]
//   qvt_tool delete   --dyn base --ids 1,2,3
//   qvt_tool compact  --dyn base
//
// build --chunker balanced-kmeans enforces a per-chunk population bound
// during assignment (--max-chunk-pop, or a 1.05x fair-share bound when 0);
// with any other chunker, --max-chunk-pop applies the post-hoc rebalancing
// passes (split oversized, pack undersized) to its output. generate
// --heavy-mode-weight W puts fraction W of all descriptors in one dense
// mode — the tail-latency stress collection. tail sweeps chunk budgets and
// reports delivered recall vs the p50/p95/p99 latency distribution,
// optionally writing the BENCH_tail.json document.
//
// build --pq-out additionally trains per-subspace product-quantization
// codebooks on the collection, encodes every descriptor to m bytes, and
// writes the "QVTPQC01" compressed-collection file — the in-memory first
// pass of --method pq (pass it as file=codes.pqc in --method-params, or
// let pq train at Prepare). info --pq and fsck --pq inspect/verify one.
//
// --method picks any search method registered in MethodRegistry ("methods"
// lists them): chunked (the paper's §4.3 searcher; needs --index),
// exact-scan, lsh, va-file, medrank, psphere, pq. --method-params passes
// comma-separated key=value options to the method's factory; unknown keys
// are rejected. --check-recall R computes exact-scan ground truth for the
// sampled workload and fails (exit 1) when mean recall@k drops below R —
// the CI smoke harness for the method matrix.
//
// Every chunk is fetched synchronously (a pread, or the single-flight
// chunk cache with --cache-pages); there is no read-ahead. search's
// "overlapped" time is the cost model's account of I/O-CPU overlap.
//
// batch --threads N runs the batch as contiguous query slices on up to N
// worker threads (never more than one per slice). --shared-scan on (the
// default) runs methods that support it (chunked, dynamic) chunk-major:
// identical query vectors share one plan and scan, the distinct ones are
// cut into N slices, and each slice's chunk schedules are merged so each
// chunk is fetched and decoded once for all of the slice's queries that
// want it. Every other method, pq included, runs query-major either way:
// one query per slice, which is what --shared-scan off asks for too.
// Results are bit-identical across modes and thread counts; the report
// adds the coalescing ledger, summed over slices (at N > 1 each slice
// fetches its own chunks, so fetches rise with N).
//
// ingest/delete/compact drive a dynamic (Bentley-Saxe) index at path
// prefix --dyn: ingest creates the index on first use (--method picks the
// wrapped search method, the extension knobs pick the merge geometry) and
// streams collection rows into it — flushes and merge cascades fire
// automatically as the mutable buffer fills; --delete-every N interleaves a
// tombstone for the row inserted N positions earlier, the mixed-workload
// stressor. delete tombstones explicit ids; compact folds everything into
// one shard, purging deleted rows — after which answers are bit-identical
// to a static build over the live rows. Each command persists with an
// atomic manifest rename on exit, so a crash mid-run (including the
// QVT_DYN_CRASH test hook, which kills the process after a merge's
// artifacts are written but before any save) leaves the previous manifest
// intact. info --dyn prints the level occupancy; fsck --dyn verifies the
// manifest CRC, record invariants, and every shard artifact.
//
// info --collection additionally instantiates every registered method over
// that collection and prints one resident-memory line per method — what
// each first pass keeps in RAM to answer queries.
//
// Every command opens an index or PQ file the one way: map it and check its
// envelope and every entry. fsck adds the checks an open skips: the
// full-file CRC and each chunk payload against its index sphere. Defects
// are reported with file path and byte offset; exit 1, never an abort.
//
// A numeric flag that does not parse as a number is a usage error
// ("error: --images: not a number: abc"), exit 2 like every other; so is a
// negative count, size or seed ("error: --images: must be >= 0: -1"), and
// a --check-recall outside [0, 1]. The
// --ids and --budgets lists check every item the same way, and an id must
// also fit a descriptor id ("error: --ids: must be <= 4294967294: ...");
// delete checks the whole list before it opens the index.
//
// --build-threads sets how many threads generation and index construction
// use (default: hardware concurrency). Artifacts are bit-identical at every
// thread count; a per-phase wall-time ledger is printed after the work.
//
// The collection file uses the paper's 100-byte record format, so indexes
// built here interoperate with every library API.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/figures.h"
#include "bench_util/runner.h"
#include "cluster/bag.h"
#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/pq.h"
#include "cluster/rebalance.h"
#include "cluster/round_robin.h"
#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/search_method.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "dynamic/dynamic_index.h"
#include "dynamic/manifest.h"
#include "storage/chunk_cache.h"
#include "storage/pq_file.h"
#include "util/build_stats.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/stats.h"

namespace qvt {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    return GetNumber<int64_t>(name, fallback);
  }
  /// A count or size: like GetInt, but a negative value is a usage error
  /// ("error: --name: must be >= 0: -1", exit 2) instead of wrapping.
  size_t GetCount(const std::string& name, size_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return ParseCount(name, it->second, SIZE_MAX);
  }
  /// A comma-separated list of counts (empty items skipped), each checked
  /// like GetCount and against `max`.
  std::vector<size_t> GetCountList(const std::string& name,
                                   const std::string& fallback,
                                   size_t max) const {
    std::vector<size_t> values;
    std::stringstream list(Get(name, fallback));
    std::string item;
    while (std::getline(list, item, ',')) {
      if (!item.empty()) values.push_back(ParseCount(name, item, max));
    }
    return values;
  }
  double GetDouble(const std::string& name, double fallback) const {
    return GetNumber<double>(name, fallback);
  }
  /// A fraction: like GetDouble, but a value outside [0, 1] is a usage
  /// error ("error: --name: must be in [0, 1]: 1.5", exit 2).
  double GetFraction(const std::string& name, double fallback) const {
    const double value = GetDouble(name, fallback);
    if (!(value >= 0.0 && value <= 1.0)) {
      UsageError(name, "must be in [0, 1]", Get(name, ""));
    }
    return value;
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }

 private:
  template <typename T>
  T GetNumber(const std::string& name, T fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : Parse<T>(name, it->second);
  }

  /// Parses all of `text` as a finite T; anything else is a usage error:
  /// "error: --name: not a number: text", exit 2.
  template <typename T>
  static T Parse(const std::string& name, const std::string& text) {
    const char* end = text.data() + text.size();
    T value{};
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end ||
        !std::isfinite(static_cast<double>(value))) {
      UsageError(name, "not a number", text);
    }
    return value;
  }

  /// Parses `text` as an integer in [0, max].
  static size_t ParseCount(const std::string& name, const std::string& text,
                           size_t max) {
    const int64_t value = Parse<int64_t>(name, text);
    if (value < 0) UsageError(name, "must be >= 0", text);
    if (static_cast<uint64_t>(value) > max) {
      UsageError(name, "must be <= " + std::to_string(max), text);
    }
    return static_cast<size_t>(value);
  }

  [[noreturn]] static void UsageError(const std::string& name,
                                      const std::string& what,
                                      const std::string& text) {
    std::fprintf(stderr, "error: --%s: %s: %s\n", name.c_str(), what.c_str(),
                 text.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Applies --build-threads (when present) and resets the phase ledger so the
/// report below covers just this invocation.
void ApplyBuildThreads(const Flags& flags) {
  if (flags.Has("build-threads")) {
    SetBuildThreads(flags.GetCount("build-threads", 0));
  }
  BuildStats::Global().Reset();
}

void PrintBuildStats() {
  std::printf("build phases (%zu thread%s):\n", BuildThreads(),
              BuildThreads() == 1 ? "" : "s");
  std::ostringstream ledger;
  BuildStats::Global().Print(ledger);
  std::fputs(ledger.str().c_str(), stdout);
}

int CmdGenerate(const Flags& flags) {
  if (!flags.Has("out")) {
    std::fprintf(stderr, "generate requires --out\n");
    return 2;
  }
  GeneratorConfig config;
  config.num_images = flags.GetCount("images", 200);
  config.descriptors_per_image = flags.GetCount("descriptors", 100);
  config.num_modes = flags.GetCount("modes", 20);
  config.seed = flags.GetCount("seed", 42);
  config.heavy_mode_weight = flags.GetDouble("heavy-mode-weight", 0.0);
  if (config.heavy_mode_weight < 0.0 || config.heavy_mode_weight >= 1.0) {
    std::fprintf(stderr, "--heavy-mode-weight must be in [0, 1)\n");
    return 2;
  }
  ApplyBuildThreads(flags);

  const Collection collection = GenerateCollection(config);
  const Status status = collection.Save(Env::Posix(), flags.Get("out", ""));
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu descriptors (%zu images) to %s\n", collection.size(),
              config.num_images, flags.Get("out", "").c_str());
  PrintBuildStats();
  return 0;
}

int CmdBuild(const Flags& flags) {
  if (!flags.Has("collection") || !flags.Has("out")) {
    std::fprintf(stderr, "build requires --collection and --out\n");
    return 2;
  }
  const size_t chunk_size = flags.GetCount("chunk-size", 1000);
  const size_t max_chunk_pop = flags.GetCount("max-chunk-pop", 0);
  const std::string kind = flags.Get("chunker", "sr");
  // Every chunker divides by the chunk size; an SR-tree leaf splits in two,
  // so it needs room for at least two rows.
  const size_t min_chunk_size = kind == "sr" ? 2 : 1;
  if (chunk_size < min_chunk_size) {
    std::fprintf(stderr, "--chunk-size must be at least %zu for --chunker %s\n",
                 min_chunk_size, kind.c_str());
    return 2;
  }
  auto collection = Collection::Load(Env::Posix(), flags.Get("collection", ""));
  if (!collection.ok()) return Fail(collection.status());
  ApplyBuildThreads(flags);

  std::unique_ptr<Chunker> chunker;
  if (kind == "sr") {
    chunker = std::make_unique<SrTreeChunker>(chunk_size);
  } else if (kind == "rr") {
    chunker = std::make_unique<RoundRobinChunker>(chunk_size);
  } else if (kind == "kmeans") {
    KMeansConfig config;
    config.num_clusters =
        std::max<size_t>(1, collection->size() / chunk_size);
    chunker = std::make_unique<KMeansChunker>(config);
  } else if (kind == "balanced-kmeans" || kind == "bkm") {
    BalancedKMeansConfig config;
    config.base.num_clusters =
        std::max<size_t>(1, collection->size() / chunk_size);
    config.max_population = max_chunk_pop;
    chunker = std::make_unique<BalancedKMeansChunker>(config);
  } else if (kind == "bag") {
    chunker = std::make_unique<BagChunker>(
        std::max<size_t>(1, collection->size() / chunk_size * 2),
        BagConfig{});
  } else {
    std::fprintf(stderr, "unknown chunker '%s'\n", kind.c_str());
    return 2;
  }

  auto chunking = chunker->FormChunks(*collection);
  if (!chunking.ok()) return Fail(chunking.status());
  // The balanced chunker already honors the bound during assignment; for
  // every other chunker a requested bound is applied post hoc.
  if (max_chunk_pop > 0 && kind != "balanced-kmeans" && kind != "bkm") {
    RebalanceOptions options;
    options.max_population = max_chunk_pop;
    auto rebalanced =
        RebalanceChunking(std::move(chunking).value(), *collection, options);
    if (!rebalanced.ok()) return Fail(rebalanced.status());
    chunking = std::move(rebalanced);
    std::printf("rebalanced to max population %zu\n", max_chunk_pop);
  }
  auto index =
      ChunkIndex::Build(*collection, *chunking, Env::Posix(),
                        ChunkIndexPaths::ForBase(flags.Get("out", "")));
  if (!index.ok()) return Fail(index.status());
  std::printf("built %zu chunks (%zu descriptors retained, %zu outliers) "
              "with %s\n",
              index->num_chunks(),
              static_cast<size_t>(index->total_descriptors()),
              chunking->outliers.size(), chunker->name().c_str());
  std::printf("populations: %s\n", chunking->Populations().ToString().c_str());
  // --pq-out: train + encode the compressed in-memory first pass alongside
  // the chunk index, into the "QVTPQC01" file --method pq can open.
  if (flags.Has("pq-out")) {
    PqConfig pq_config;
    pq_config.m = flags.GetCount("pq-m", 8);
    pq_config.ksub = flags.GetCount("pq-ksub", 256);
    pq_config.max_iterations = flags.GetCount("pq-iters", 25);
    pq_config.seed = flags.GetCount("pq-seed", 7);
    auto codebook = TrainPq(*collection, pq_config);
    if (!codebook.ok()) return Fail(codebook.status());
    auto codes = PqEncode(*collection, *codebook);
    if (!codes.ok()) return Fail(codes.status());
    const std::string pq_path = flags.Get("pq-out", "");
    if (const Status written =
            WritePqFile(Env::Posix(), pq_path, codebook->dim, codebook->m,
                        codebook->ksub, codebook->centroids, *codes,
                        collection->Ids());
        !written.ok()) {
      return Fail(written);
    }
    std::printf("wrote pq codes to %s: m=%zu x ksub=%zu, %zu bytes/row "
                "(%.1fx smaller than %zu-byte records)\n",
                pq_path.c_str(), codebook->m, codebook->ksub, codebook->m,
                static_cast<double>(DescriptorRecordBytes(codebook->dim)) /
                    static_cast<double>(codebook->m),
                DescriptorRecordBytes(codebook->dim));
  }
  PrintBuildStats();
  return 0;
}

/// Shared dynamic-index configuration: the wrapped method and the merge
/// geometry. The method and params only matter when the index is created;
/// on reopen the manifest's recorded choice wins.
StatusOr<DynamicOptions> DynamicOptionsFromFlags(const Flags& flags) {
  DynamicOptions options;
  options.method = flags.Get("method", "chunked");
  options.method_params = flags.Get("method-params", "");
  options.extension.buffer_capacity = flags.GetCount("buffer-capacity", 1024);
  options.extension.scale_factor = flags.GetCount("scale-factor", 4);
  const std::string policy = flags.Get("policy", "tiering");
  if (policy == "tiering") {
    options.extension.policy = MergePolicy::kTiering;
  } else if (policy == "leveling") {
    options.extension.policy = MergePolicy::kLeveling;
  } else {
    return Status::InvalidArgument("--policy must be tiering or leveling");
  }
  options.target_chunk_size = flags.GetCount("chunk-size", 256);
  return options;
}

/// Reopens the dynamic index at --dyn; ingest additionally creates a fresh
/// one when nothing has been saved there yet.
StatusOr<std::unique_ptr<DynamicIndex>> OpenOrCreateDynamic(
    const Flags& flags, bool create_if_missing) {
  auto options = DynamicOptionsFromFlags(flags);
  if (!options.ok()) return options.status();
  const std::string base = flags.Get("dyn", "");
  auto opened = DynamicIndex::Open(Env::Posix(), base, *options);
  if (opened.ok() || !opened.status().IsNotFound() || !create_if_missing) {
    return opened;
  }
  std::printf("creating dynamic index at %s (method %s)\n", base.c_str(),
              options->method.c_str());
  return DynamicIndex::Create(Env::Posix(), base, *std::move(options));
}

// Streams collection rows into the dynamic index at --dyn (created on first
// use), letting buffer flushes and merge cascades fire as they may.
// --delete-every N interleaves deletes of rows inserted N positions earlier
// — old enough to usually live in a shard already, so tombstones cross the
// buffer/shard boundary. State persists in one atomic manifest rename at
// the end; a crash mid-run (QVT_DYN_CRASH) loses only this run's rows.
int CmdIngest(const Flags& flags) {
  if (!flags.Has("dyn") || !flags.Has("collection")) {
    std::fprintf(stderr, "ingest requires --dyn and --collection\n");
    return 2;
  }
  auto collection = Collection::Load(Env::Posix(), flags.Get("collection", ""));
  if (!collection.ok()) return Fail(collection.status());
  ApplyBuildThreads(flags);

  auto index = OpenOrCreateDynamic(flags, /*create_if_missing=*/true);
  if (!index.ok()) return Fail(index.status());

  const size_t offset = flags.GetCount("offset", 0);
  if (offset > collection->size()) {
    std::fprintf(stderr, "--offset past the collection (%zu rows)\n",
                 collection->size());
    return 2;
  }
  const size_t remaining = collection->size() - offset;
  size_t count = flags.GetCount("count", 0);
  if (count == 0 || count > remaining) count = remaining;
  const size_t delete_every = flags.GetCount("delete-every", 0);

  const auto start = std::chrono::steady_clock::now();
  std::vector<DescriptorId> inserted;
  inserted.reserve(count);
  size_t skipped = 0;
  size_t deleted = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t pos = offset + i;
    const Status status = (*index)->Insert(
        collection->Id(pos), collection->Vector(pos), collection->Image(pos));
    if (status.IsAlreadyExists()) {
      ++skipped;  // duplicate id in the source; the live row wins
      continue;
    }
    if (!status.ok()) return Fail(status);
    inserted.push_back(collection->Id(pos));
    if (delete_every > 0 && inserted.size() % delete_every == 0 &&
        inserted.size() > delete_every) {
      const Status dead =
          (*index)->Delete(inserted[inserted.size() - 1 - delete_every]);
      if (!dead.ok()) return Fail(dead);
      ++deleted;
    }
  }
  if (const Status saved = (*index)->Save(); !saved.ok()) return Fail(saved);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  const DynamicStats stats = (*index)->Stats();
  std::printf("ingested %zu rows (%zu duplicate ids skipped, %zu deleted) "
              "in %.3f s — %.0f inserts/s\n",
              inserted.size(), skipped, deleted, wall_s,
              wall_s > 0 ? static_cast<double>(inserted.size()) / wall_s
                         : 0.0);
  std::printf("index: %s\n", (*index)->Describe().c_str());
  std::printf("levels: %s\n", (*index)->DescribeLevels().c_str());
  std::printf("writer: %llu flushes, %llu merges, %.1f ms building shards\n",
              static_cast<unsigned long long>(stats.flushes),
              static_cast<unsigned long long>(stats.merges),
              stats.build_wall_micros / 1000.0);
  PrintBuildStats();
  return 0;
}

// Tombstones explicit descriptor ids in the dynamic index at --dyn. Ids
// that are not live (never inserted, or already deleted) are reported and
// fail the command, matching the library's Delete contract.
int CmdDeleteRows(const Flags& flags) {
  if (!flags.Has("dyn") || !flags.Has("ids")) {
    std::fprintf(stderr, "delete requires --dyn and --ids\n");
    return 2;
  }
  // The whole list is checked before the index is touched, so a bad item
  // is a usage error that changes nothing.
  const std::vector<size_t> ids =
      flags.GetCountList("ids", "", kInvalidDescriptorId - 1);
  auto index = OpenOrCreateDynamic(flags, /*create_if_missing=*/false);
  if (!index.ok()) return Fail(index.status());
  size_t deleted = 0;
  size_t failures = 0;
  for (const size_t item : ids) {
    const auto id = static_cast<DescriptorId>(item);
    if (const Status status = (*index)->Delete(id); !status.ok()) {
      std::fprintf(stderr, "delete %u: %s\n", id, status.ToString().c_str());
      ++failures;
    } else {
      ++deleted;
    }
  }
  if (const Status saved = (*index)->Save(); !saved.ok()) return Fail(saved);
  std::printf("deleted %zu id(s); %zu live rows, %zu tombstones pending\n",
              deleted, (*index)->live_rows(), (*index)->num_tombstones());
  return failures == 0 ? 0 : 1;
}

// Folds buffer + every shard of the dynamic index at --dyn into a single
// shard, physically purging deleted rows and dropping every tombstone —
// after which answers are bit-identical to a static build over the live
// rows.
int CmdCompact(const Flags& flags) {
  if (!flags.Has("dyn")) {
    std::fprintf(stderr, "compact requires --dyn\n");
    return 2;
  }
  ApplyBuildThreads(flags);
  auto index = OpenOrCreateDynamic(flags, /*create_if_missing=*/false);
  if (!index.ok()) return Fail(index.status());
  std::printf("before: %s\n", (*index)->DescribeLevels().c_str());
  const auto start = std::chrono::steady_clock::now();
  if (const Status status = (*index)->Compact(); !status.ok()) {
    return Fail(status);
  }
  if (const Status saved = (*index)->Save(); !saved.ok()) return Fail(saved);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("after:  %s\n", (*index)->DescribeLevels().c_str());
  std::printf("compacted to %zu live rows in %.1f ms; answers now match a "
              "static %s build\n",
              (*index)->live_rows(), wall_ms,
              (*index)->options().method.c_str());
  PrintBuildStats();
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (!flags.Has("index") && !flags.Has("dyn") && !flags.Has("collection")) {
    std::fprintf(stderr, "info requires --index, --dyn, or --collection\n");
    return 2;
  }
  std::optional<StatusOr<ChunkIndex>> index;
  if (flags.Has("index")) {
    const auto open_start = std::chrono::steady_clock::now();
    index.emplace(ChunkIndex::Open(
        Env::Posix(), ChunkIndexPaths::ForBase(flags.Get("index", ""))));
    const double open_micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - open_start)
            .count();
    if (!index->ok()) return Fail(index->status());

    uint64_t pages = 0;
    for (const ChunkLocation& loc : (*index)->locations()) {
      pages += loc.num_pages;
    }
    const IndexFileHeader& h = (*index)->file_header();
    std::printf("format:            QVTIDX v%u, dim %u, sections at "
                "%llu/%llu/%llu/%llu, footer at %llu\n",
                h.version, h.dim,
                static_cast<unsigned long long>(h.centroids_off),
                static_cast<unsigned long long>(h.radii_off),
                static_cast<unsigned long long>(h.directory_off),
                static_cast<unsigned long long>(h.rects_off),
                static_cast<unsigned long long>(h.footer_off));
    std::printf("open:              %.3f ms (mmap, entries checked)\n",
                open_micros / 1000.0);
    std::printf("chunks:            %zu\n", (*index)->num_chunks());
    std::printf("descriptors:       %llu\n",
                static_cast<unsigned long long>(
                    (*index)->total_descriptors()));
    std::printf("pages:             %llu (%.1f MiB padded)\n",
                static_cast<unsigned long long>(pages),
                static_cast<double>(pages) * kPageSize / (1024.0 * 1024.0));
    std::printf("populations:       %s\n",
                (*index)->populations().ToString().c_str());

    // Resident memory of the chunked first pass: what it keeps in RAM while
    // answering queries (the chunk payload itself stays on disk).
    const size_t n = (*index)->num_chunks();
    const size_t centroid_bytes = n * (*index)->dim() * sizeof(float);
    const size_t radii_bytes = n * sizeof(double);
    const size_t directory_bytes = n * sizeof(ChunkLocation);
    std::printf("resident memory:\n");
    std::printf("  chunked:         %.1f KiB (centroid matrix %.1f KiB, "
                "radii %.1f KiB, directory %.1f KiB)\n",
                (centroid_bytes + radii_bytes + directory_bytes) / 1024.0,
                centroid_bytes / 1024.0, radii_bytes / 1024.0,
                directory_bytes / 1024.0);
  }
  if (flags.Has("pq")) {
    if (!flags.Has("index")) std::printf("resident memory:\n");
    auto pq = OpenPqFile(Env::Posix(), flags.Get("pq", ""), 0);
    if (!pq.ok()) return Fail(pq.status());
    if (const Status crc = pq->VerifyCrc(); !crc.ok()) return Fail(crc);
    const size_t codebook_bytes = pq->codebooks().size() * sizeof(float);
    const size_t code_bytes = pq->codes().size();
    const size_t id_bytes = pq->ids().size() * sizeof(uint32_t);
    std::printf("  pq:              %.1f KiB (codebooks %.1f KiB, codes "
                "%.1f KiB at %zu B/row, ids %.1f KiB) — QVTPQC v%u, "
                "m=%zu x ksub=%zu, %llu rows\n",
                (codebook_bytes + code_bytes + id_bytes) / 1024.0,
                codebook_bytes / 1024.0, code_bytes / 1024.0, pq->m(),
                id_bytes / 1024.0, pq->header().version, pq->m(),
                pq->ksub(),
                static_cast<unsigned long long>(pq->num_vectors()));
  }
  const uint64_t cache_pages = flags.GetCount("cache-pages", 0);
  if (cache_pages > 0) {
    std::printf("  chunk cache:     %.1f KiB capacity (%llu pages x %zu B)\n",
                static_cast<double>(cache_pages) * kPageSize / 1024.0,
                static_cast<unsigned long long>(cache_pages), kPageSize);
  }

  if (flags.Has("dyn")) {
    auto options = DynamicOptionsFromFlags(flags);
    if (!options.ok()) return Fail(options.status());
    const std::string base = flags.Get("dyn", "");
    const auto open_start = std::chrono::steady_clock::now();
    auto dyn = DynamicIndex::Open(Env::Posix(), base, *std::move(options));
    const double open_micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - open_start)
            .count();
    if (!dyn.ok()) return Fail(dyn.status());
    std::printf("dynamic index %s:\n", base.c_str());
    std::printf("  open:            %.3f ms\n", open_micros / 1000.0);
    std::printf("  method:          %s\n", (*dyn)->Describe().c_str());
    std::printf("  levels:          %s\n", (*dyn)->DescribeLevels().c_str());
    std::printf("  rows:            %zu live (%zu buffered, %zu tombstones "
                "pending)\n",
                (*dyn)->live_rows(), (*dyn)->buffer_rows(),
                (*dyn)->num_tombstones());
    std::printf("  epoch:           %llu\n",
                static_cast<unsigned long long>((*dyn)->epoch()));
    std::printf("  resident:        %.1f KiB\n",
                static_cast<double>((*dyn)->ResidentBytes()) / 1024.0);
  }

  // --collection: one resident-memory line per registered method — every
  // method instantiated (and Prepare()d) over this collection, with the
  // chunk index / dynamic base wired in when the flags provide them.
  if (flags.Has("collection")) {
    auto collection =
        Collection::Load(Env::Posix(), flags.Get("collection", ""));
    if (!collection.ok()) return Fail(collection.status());
    MethodContext context;
    context.collection = &*collection;
    context.index = index.has_value() ? &**index : nullptr;
    context.env = Env::Posix();
    std::printf("resident memory by method (%zu rows):\n",
                collection->size());
    for (const MethodInfo& info : MethodRegistry::Global().List()) {
      std::string params;
      if (info.name == "dynamic") {
        if (!flags.Has("dyn")) {
          std::printf("  %-11s (skipped: needs --dyn)\n", info.name.c_str());
          continue;
        }
        params = "base=" + flags.Get("dyn", "");
      }
      auto method =
          MethodRegistry::Global().Create(info.name, context, params);
      const Status prepared =
          method.ok() ? (*method)->Prepare() : method.status();
      if (!prepared.ok()) {
        std::printf("  %-11s (skipped: %s)\n", info.name.c_str(),
                    prepared.ToString().c_str());
        continue;
      }
      std::printf("  %-11s %10.1f KiB — %s\n", info.name.c_str(),
                  static_cast<double>((*method)->ResidentBytes()) / 1024.0,
                  (*method)->Describe().c_str());
    }
  }
  return 0;
}

// Offline integrity check: the open's envelope + header geometry and
// per-entry checks, plus the full-file CRC and each chunk payload against
// its index sphere.
// Defects print as "error: <what> in <path> at offset <n>"; exit 1.
int CmdFsck(const Flags& flags) {
  if (!flags.Has("index") && !flags.Has("pq") && !flags.Has("dyn")) {
    std::fprintf(stderr, "fsck requires --index, --dyn, and/or --pq\n");
    return 2;
  }
  int failures = 0;
  if (flags.Has("dyn")) {
    // Manifest envelope + CRC + record invariants, then every shard
    // artifact (row counts, chunk-index deep validation for the chunked
    // method).
    const std::string base = flags.Get("dyn", "");
    const Status verdict = FsckDynamic(Env::Posix(), base);
    if (!verdict.ok()) {
      std::fprintf(stderr, "fsck: dyn %s: %s\n", base.c_str(),
                   verdict.ToString().c_str());
      ++failures;
    } else if (auto manifest = LoadDynamicManifest(Env::Posix(), base);
               !manifest.ok()) {
      std::fprintf(stderr, "fsck: dyn %s: %s\n", base.c_str(),
                   manifest.status().ToString().c_str());
      ++failures;
    } else {
      uint64_t shard_rows = 0;
      for (const ManifestShardRecord& shard : manifest->shards) {
        shard_rows += shard.rows;
      }
      std::printf("fsck: dyn %s: OK (%zu shards / %llu rows, %zu buffered, "
                  "%zu tombstones, method %s, format v%u)\n",
                  base.c_str(), manifest->shards.size(),
                  static_cast<unsigned long long>(shard_rows),
                  manifest->buffer_rows(), manifest->tombstones.size(),
                  manifest->method.c_str(), kDynamicFormatVersion);
    }
  }
  if (flags.Has("index")) {
    // Open checks the envelope and entry invariants; Validate verifies the
    // CRC and re-reads every chunk against its sphere.
    auto index = ChunkIndex::Open(
        Env::Posix(), ChunkIndexPaths::ForBase(flags.Get("index", "")));
    Status verdict = index.ok() ? index->Validate(static_cast<uint32_t>(
                                      flags.GetCount("max-chunk-pop", 0)))
                                : index.status();
    if (!verdict.ok()) {
      std::fprintf(stderr, "fsck: index %s: %s\n",
                   flags.Get("index", "").c_str(),
                   verdict.ToString().c_str());
      ++failures;
    } else {
      std::printf("fsck: index %s: OK (%zu chunks, dim %zu, format v%u)\n",
                  flags.Get("index", "").c_str(), index->num_chunks(),
                  index->dim(), index->file_header().version);
    }
  }
  if (flags.Has("pq")) {
    // Open checks envelope geometry and per-entry invariants (finite
    // codebooks, every code < ksub); VerifyCrc adds the checksum.
    auto pq = OpenPqFile(Env::Posix(), flags.Get("pq", ""), 0);
    const Status verdict = pq.ok() ? pq->VerifyCrc() : pq.status();
    if (!verdict.ok()) {
      std::fprintf(stderr, "fsck: pq %s: %s\n", flags.Get("pq", "").c_str(),
                   verdict.ToString().c_str());
      ++failures;
    } else {
      std::printf("fsck: pq %s: OK (m=%zu x ksub=%zu, dim %zu, %llu rows, "
                  "format v%u)\n",
                  flags.Get("pq", "").c_str(), pq->m(), pq->ksub(), pq->dim(),
                  static_cast<unsigned long long>(pq->num_vectors()),
                  pq->header().version);
    }
  }
  return failures == 0 ? 0 : 1;
}

// Lists every method in the registry with its capability flags.
// --names 1 prints bare names only (one per line), for shell loops.
int CmdMethods(const Flags& flags) {
  const bool names_only = flags.GetInt("names", 0) != 0;
  for (const MethodInfo& info : MethodRegistry::Global().List()) {
    if (names_only) {
      std::printf("%s\n", info.name.c_str());
      continue;
    }
    const MethodCapabilities& caps = info.capabilities;
    std::printf("%-11s %s\n", info.name.c_str(), info.summary.c_str());
    std::printf("            capabilities: exact=%s stop-rules=%s "
                "disk-model=%s\n",
                caps.exact ? "yes" : "no", caps.stop_rules ? "yes" : "no",
                caps.disk_model ? "yes" : "no");
  }
  return 0;
}

// Prints the unified per-query (or summed) telemetry record.
void PrintTelemetry(const QueryTelemetry& t, const char* prefix) {
  std::printf("%sprobes %llu, index entries %llu, candidates %llu, "
              "descriptors %llu\n",
              prefix, static_cast<unsigned long long>(t.probes),
              static_cast<unsigned long long>(t.index_entries_scanned),
              static_cast<unsigned long long>(t.candidates_examined),
              static_cast<unsigned long long>(t.descriptors_scanned));
  std::printf("%sbytes read %llu, chunks read %llu (%llu ranks skipped, "
              "%llu sweeps skipped by bound), cache %llu hit / %llu miss\n",
              prefix, static_cast<unsigned long long>(t.bytes_read),
              static_cast<unsigned long long>(t.chunks_read),
              static_cast<unsigned long long>(t.chunks_skipped),
              static_cast<unsigned long long>(t.sweeps_skipped),
              static_cast<unsigned long long>(t.cache_hits),
              static_cast<unsigned long long>(t.cache_misses));
}

int CmdSearch(const Flags& flags) {
  if (!flags.Has("collection") || !flags.Has("query-pos")) {
    std::fprintf(stderr, "search requires --collection and --query-pos\n");
    return 2;
  }
  auto collection = Collection::Load(Env::Posix(), flags.Get("collection", ""));
  if (!collection.ok()) return Fail(collection.status());

  std::optional<StatusOr<ChunkIndex>> index;
  if (flags.Has("index")) {
    index.emplace(ChunkIndex::Open(
        Env::Posix(), ChunkIndexPaths::ForBase(flags.Get("index", ""))));
    if (!index->ok()) return Fail(index->status());
  }

  const size_t pos = flags.GetCount("query-pos", 0);
  if (pos >= collection->size()) {
    std::fprintf(stderr, "query-pos out of range (collection has %zu)\n",
                 collection->size());
    return 2;
  }
  const size_t k = flags.GetCount("k", 10);
  const size_t max_chunks = flags.GetCount("max-chunks", 0);

  MethodContext context;
  context.collection = &*collection;
  context.index = index.has_value() ? &**index : nullptr;
  context.env = Env::Posix();
  auto method = MethodRegistry::Global().Create(
      flags.Get("method", "chunked"), context, flags.Get("method-params", ""));
  if (!method.ok()) return Fail(method.status());
  if (const Status prepared = (*method)->Prepare(); !prepared.ok()) {
    return Fail(prepared);
  }
  std::printf("method: %s\n", (*method)->Describe().c_str());

  const StopRule stop =
      max_chunks > 0 ? StopRule::MaxChunks(max_chunks) : StopRule::Exact();
  auto result = (*method)->Search(collection->Vector(pos), k, stop);
  if (!result.ok()) return Fail(result.status());

  const QueryTelemetry& t = result->telemetry;
  std::printf("%s search: %.1f ms wall, %.1f ms modeled "
              "(%.1f ms overlapped)\n",
              t.exact ? "exact" : "approximate", t.wall_micros / 1000.0,
              t.model_micros / 1000.0, t.model_overlapped_micros / 1000.0);
  PrintTelemetry(t, "");
  for (const Neighbor& n : result->neighbors) {
    std::printf("  id %-10u dist %.4f\n", n.id, n.distance);
  }
  return 0;
}

// Runs a sampled query workload through the concurrent batch engine, via
// any registered --method (default: the paper's chunked searcher).
// Methods that support it run chunk-major by default (--shared-scan off
// forces query-major); results are bit-identical either way, so
// figure-reproduction runs stay on the paper's methodology.
// --verify 1 re-runs the batch serially (query-major, fresh cache) and
// cross-checks each query's neighbor ids and distance bits, chunks read,
// exact verdict and (without --cache-pages) model time — covering
// concurrency AND the shared-scan executor. --check-recall R scores the
// batch against exact-scan ground truth and fails below the threshold.
int CmdBatch(const Flags& flags) {
  const std::string method_name = flags.Get("method", "chunked");
  if (!flags.Has("collection")) {
    std::fprintf(stderr, "batch requires --collection\n");
    return 2;
  }
  if (method_name == "chunked" && !flags.Has("index")) {
    std::fprintf(stderr, "batch --method chunked requires --index\n");
    return 2;
  }
  auto collection = Collection::Load(Env::Posix(), flags.Get("collection", ""));
  if (!collection.ok()) return Fail(collection.status());
  std::optional<StatusOr<ChunkIndex>> index;
  if (flags.Has("index")) {
    index.emplace(ChunkIndex::Open(
        Env::Posix(), ChunkIndexPaths::ForBase(flags.Get("index", ""))));
    if (!index->ok()) return Fail(index->status());
  }

  const size_t num_queries =
      std::min(flags.GetCount("queries", 1000), collection->size());
  const size_t k = flags.GetCount("k", 10);
  const size_t threads = flags.GetCount("threads", 1);
  const size_t max_chunks = flags.GetCount("max-chunks", 0);
  const uint64_t cache_pages = flags.GetCount("cache-pages", 0);
  const double recall_threshold = flags.GetFraction("check-recall", 0.0);

  Rng rng(flags.GetCount("seed", 7));
  const Workload workload = MakeDatasetQueries(*collection, num_queries, &rng);
  const StopRule stop =
      max_chunks > 0 ? StopRule::MaxChunks(max_chunks) : StopRule::Exact();

  std::unique_ptr<ChunkCache> cache;
  if (cache_pages > 0) {
    cache = std::make_unique<ChunkCache>(cache_pages,
                                         std::max<size_t>(threads, 1));
  }
  MethodContext context;
  context.collection = &*collection;
  context.index = index.has_value() ? &**index : nullptr;
  context.cache = cache.get();
  context.env = Env::Posix();
  const std::string method_params = flags.Get("method-params", "");
  auto method = MethodRegistry::Global().Create(method_name, context,
                                                method_params);
  if (!method.ok()) return Fail(method.status());
  if (const Status prepared = (*method)->Prepare(); !prepared.ok()) {
    return Fail(prepared);
  }
  std::printf("method: %s\n", (*method)->Describe().c_str());

  const std::string shared_flag = flags.Get("shared-scan", "on");
  if (shared_flag != "on" && shared_flag != "off") {
    std::fprintf(stderr, "--shared-scan must be on or off\n");
    return 2;
  }
  BatchSearcher batch_searcher(method->get(), threads,
                               /*shared_scan=*/shared_flag == "on");
  auto batch = batch_searcher.SearchAll(workload, k, stop);
  if (!batch.ok()) return Fail(batch.status());

  std::printf("batch: %zu queries, k=%zu, %zu thread(s)\n",
              workload.num_queries(), k, batch->num_threads);
  std::printf("wall:  %.3f s total, %.1f queries/s\n",
              batch->batch_wall_micros * 1e-6,
              batch->batch_wall_micros > 0
                  ? 1e6 * static_cast<double>(workload.num_queries()) /
                        static_cast<double>(batch->batch_wall_micros)
                  : 0.0);
  std::printf("per-query wall  (ms): mean %.2f  p50 %.2f  p95 %.2f  "
              "p99 %.2f  max %.2f\n",
              batch->wall.mean / 1000.0, batch->wall.p50 / 1000.0,
              batch->wall.p95 / 1000.0, batch->wall.p99 / 1000.0,
              batch->wall.max / 1000.0);
  std::printf("per-query model (ms): mean %.2f  p50 %.2f  p95 %.2f  "
              "p99 %.2f  max %.2f\n",
              batch->model.mean / 1000.0, batch->model.p50 / 1000.0,
              batch->model.p95 / 1000.0, batch->model.p99 / 1000.0,
              batch->model.max / 1000.0);
  std::printf("telemetry totals (%zu exact of %zu):\n", batch->exact_queries,
              workload.num_queries());
  PrintTelemetry(batch->totals, "  ");
  if (cache != nullptr) {
    const ChunkCacheStats stats = cache->Stats();
    std::printf("cache: %zu shard(s), hit rate %.1f%%, %llu evictions, "
                "%llu coalesced reads\n",
                cache->num_shards(), 100.0 * stats.HitRate(),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.single_flight_waits));
  }
  if (batch->shared.enabled) {
    const SharedScanStats& s = batch->shared;
    std::printf("shared scan: %llu distinct queries, %llu dedup hit(s)\n",
                static_cast<unsigned long long>(s.queries),
                static_cast<unsigned long long>(s.dedup_hits));
    std::printf("  chunk fetches: %llu for %llu attachments "
                "(%llu fetch+decodes coalesced, %.1f%% saved)\n",
                static_cast<unsigned long long>(s.chunk_fetches),
                static_cast<unsigned long long>(s.chunk_attachments),
                static_cast<unsigned long long>(s.chunks_coalesced()),
                s.chunk_attachments > 0
                    ? 100.0 * static_cast<double>(s.chunks_coalesced()) /
                          static_cast<double>(s.chunk_attachments)
                    : 0.0);
    std::printf("  rows: %llu fetched once, %llu co-scanned row passes\n",
                static_cast<unsigned long long>(s.rows_fetched),
                static_cast<unsigned long long>(s.rows_scan_shared));
    std::printf("  co-scan histogram (queries/chunk):");
    for (size_t b = 0; b < SharedScanStats::kHistogramBuckets; ++b) {
      if (s.coscan_histogram[b] == 0) continue;
      std::printf(" [%zu+]=%llu", static_cast<size_t>(1) << b,
                  static_cast<unsigned long long>(s.coscan_histogram[b]));
    }
    std::printf("\n");
  }

  if (flags.GetInt("verify", 0) != 0) {
    // A fresh method instance for the serial pass with a fresh cache, so
    // both runs start cold.
    std::unique_ptr<ChunkCache> serial_cache;
    if (cache_pages > 0) {
      serial_cache = std::make_unique<ChunkCache>(cache_pages, 1);
    }
    MethodContext serial_context = context;
    serial_context.cache = serial_cache.get();
    auto serial_method = MethodRegistry::Global().Create(
        method_name, serial_context, method_params);
    if (!serial_method.ok()) return Fail(serial_method.status());
    if (const Status prepared = (*serial_method)->Prepare(); !prepared.ok()) {
      return Fail(prepared);
    }
    // Query-major, shared scans off: the reference is the plain per-query
    // loop, so --verify also covers the chunk-major executor.
    BatchSearcher serial(serial_method->get(), 1, /*shared_scan=*/false);
    auto reference = serial.SearchAll(workload, k, stop);
    if (!reference.ok()) return Fail(reference.status());
    size_t mismatches = 0;
    for (size_t q = 0; q < workload.num_queries(); ++q) {
      const MethodResult& a = batch->results[q];
      const MethodResult& b = reference->results[q];
      // With a cache, hit verdicts (and so the model clock) depend on how
      // queries interleave, so model time is compared only without one.
      bool same =
          a.telemetry.chunks_read == b.telemetry.chunks_read &&
          a.telemetry.chunks_skipped == b.telemetry.chunks_skipped &&
          a.telemetry.exact == b.telemetry.exact &&
          (cache != nullptr ||
           a.telemetry.model_micros == b.telemetry.model_micros) &&
          a.neighbors.size() == b.neighbors.size();
      for (size_t i = 0; same && i < a.neighbors.size(); ++i) {
        same = a.neighbors[i].id == b.neighbors[i].id &&
               std::memcmp(&a.neighbors[i].distance, &b.neighbors[i].distance,
                           sizeof(double)) == 0;
      }
      if (!same) ++mismatches;
    }
    std::printf("verify: %zu/%zu queries identical to serial run%s\n",
                workload.num_queries() - mismatches, workload.num_queries(),
                mismatches == 0 ? "" : "  <-- MISMATCH");
    const double speedup =
        batch->batch_wall_micros > 0
            ? static_cast<double>(reference->batch_wall_micros) /
                  static_cast<double>(batch->batch_wall_micros)
            : 0.0;
    std::printf("speedup vs serial: %.2fx\n", speedup);
    if (mismatches != 0) return 1;
  }

  if (flags.Has("check-recall")) {
    const GroundTruth truth = GroundTruth::Compute(*collection, workload, k);
    double recall = 0.0;
    for (size_t q = 0; q < workload.num_queries(); ++q) {
      recall += PrecisionAtK(batch->results[q].neighbors, truth.TruthFor(q),
                             k);
    }
    if (workload.num_queries() > 0) {
      recall /= static_cast<double>(workload.num_queries());
    }
    const bool pass = recall >= recall_threshold;
    std::printf("recall@%zu vs exact scan: %.4f (threshold %.4f) %s\n", k,
                recall, recall_threshold, pass ? "PASS" : "FAIL");
    if (!pass) return 1;
  }
  return 0;
}

// Sweeps chunk budgets over an existing index and reports delivered recall
// vs the per-query latency distribution (p50/p95/p99, model and wall clock)
// — the quality-vs-p99 axis of the tail-latency experiment, for whatever
// index the user built (any --chunker, any --max-chunk-pop). --json writes
// the single-series BENCH_tail.json document; --max-chunk-pop declares the
// population bound recorded with the series (and checked against the
// index), it does not rebuild anything.
int CmdTail(const Flags& flags) {
  if (!flags.Has("collection") || !flags.Has("index")) {
    std::fprintf(stderr, "tail requires --collection and --index\n");
    return 2;
  }
  auto collection = Collection::Load(Env::Posix(), flags.Get("collection", ""));
  if (!collection.ok()) return Fail(collection.status());
  auto index = ChunkIndex::Open(
      Env::Posix(), ChunkIndexPaths::ForBase(flags.Get("index", "")));
  if (!index.ok()) return Fail(index.status());

  const size_t num_queries =
      std::min(flags.GetCount("queries", 200), collection->size());
  const size_t k = flags.GetCount("k", 10);
  const size_t threads = flags.GetCount("threads", 1);
  const size_t max_chunk_pop = flags.GetCount("max-chunk-pop", 0);
  if (max_chunk_pop > 0) {
    if (const Status valid =
            index->Validate(static_cast<uint32_t>(max_chunk_pop));
        !valid.ok()) {
      return Fail(valid);
    }
  }

  const std::vector<size_t> budgets =
      flags.GetCountList("budgets", "1,2,4,8,0", SIZE_MAX);
  if (budgets.empty()) {
    std::fprintf(stderr, "--budgets needs at least one entry (0 = exact)\n");
    return 2;
  }

  Rng rng(flags.GetCount("seed", 7));
  const Workload workload = MakeDatasetQueries(*collection, num_queries, &rng);
  const GroundTruth truth = GroundTruth::Compute(*collection, workload, k);

  MethodContext context;
  context.collection = &*collection;
  context.index = &*index;
  context.env = Env::Posix();
  const std::string method_name = flags.Get("method", "chunked");
  auto method = MethodRegistry::Global().Create(method_name, context,
                                                flags.Get("method-params", ""));
  if (!method.ok()) return Fail(method.status());
  if (const Status prepared = (*method)->Prepare(); !prepared.ok()) {
    return Fail(prepared);
  }
  std::printf("method: %s\n", (*method)->Describe().c_str());

  auto points = RunTailSweep(**method, workload, &truth, k, budgets, threads);
  if (!points.ok()) return Fail(points.status());

  TailSeries series;
  series.label = flags.Get("label", method_name);
  series.populations = index->populations();
  series.population_bound = max_chunk_pop;
  series.points = std::move(points).value();

  PrintTailTable(std::cout, "quality vs tail latency", {series});
  if (flags.Has("json")) {
    const std::string path = flags.Get("json", "BENCH_tail.json");
    std::ofstream json(path);
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    WriteTailJson(json, {series});
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: qvt_tool <generate|build|info|fsck|tail|methods|"
                 "search|batch|ingest|delete|compact> [--flag value]...\n");
    return 2;
  }
  // The dynamic wrapper lives above the core library, so its registration
  // is explicit (the registry's built-ins self-register).
  if (const Status registered =
          RegisterDynamicMethod(MethodRegistry::Global());
      !registered.ok()) {
    return Fail(registered);
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "fsck") return CmdFsck(flags);
  if (command == "tail") return CmdTail(flags);
  if (command == "methods") return CmdMethods(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "ingest") return CmdIngest(flags);
  if (command == "delete") return CmdDeleteRows(flags);
  if (command == "compact") return CmdCompact(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) { return qvt::Main(argc, argv); }

// image_approx: copy-detection traffic over the canonical static
// collection. One request is every stored descriptor of one image (the
// paper's DQ queries grouped by image), answered by one BatchSearcher call
// on one worker under MaxChunks(8) (README.md gives the measurements behind
// the pins). Planning (ranking all 598 chunks to read 8) dominates and the
// queries of a request share chunks.
//
// Each run answers every request of a seeded pool once (the reference pass:
// checked against ExactScan and the L2 contract outside any timed window),
// answers the first few pool requests again under the exact rule (which
// must reproduce ExactScan and report exact), then replays a seeded order
// of the pool closed-loop from one driver thread for the timed phase. Every
// timed answer must equal the request's reference answer bit for bit.
//
// The traced run issues each request twice, traced and untraced, for the
// overhead ratio, then replays every pool query layer by layer through the
// public calls the searcher itself makes (RankChunks, ReadChunk, the abandon
// kernel, KnnResultSet::Insert) and requires the replay to reproduce the
// method's answer bit for bit.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "geometry/kernels.h"
#include "trace.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

/// The ROADMAP's canonical collection: 2,000 images x 75 descriptors
/// (149,422 rows at generator seed 42), SR-tree chunks of 250 rows (598
/// chunks). The collection is the same in every run; the workload seed
/// draws the requests.
constexpr uint64_t kCollectionSeed = 42;
constexpr size_t kImages = 2000;
constexpr size_t kDescriptorsPerImage = 75;
constexpr size_t kModes = 20;
constexpr size_t kChunkSize = 250;
/// Rows per kernel call in the replay: the searcher's scan block.
constexpr size_t kScanBlock = 256;
/// Rng streams derived from the workload seed.
constexpr uint64_t kPoolStream = 1;
constexpr uint64_t kOrderStream = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr uint32_t kSetupRepetitions = 9;

constexpr size_t kWorkers = 1;
constexpr size_t kMaxChunks = 8;
/// Distinct image requests per run.
constexpr size_t kPoolSize = 256;
/// Pool requests also answered under the exact rule, off the clock.
constexpr size_t kExactChecks = 4;

struct StaticIndex {
  std::unique_ptr<qvt::Collection> collection;
  std::unique_ptr<qvt::ChunkIndex> index;
  std::unique_ptr<qvt::SearchMethod> method;
  double seconds = 0.0;       ///< whole set-up
  double load_seconds = 0.0;  ///< FormChunks + Build + Open: the bulk load
};

/// Generate, chunk, write, open and Prepare: the set-up a user of the
/// static index pays. Spans go to `tracer` under request id `rep`.
qvt::StatusOr<StaticIndex> SetUp(const std::string& dir, uint32_t rep,
                                 Tracer* tracer) {
  StaticIndex s;
  const int64_t t0 = NowNanos();
  qvt::GeneratorConfig config;
  config.num_images = kImages;
  config.descriptors_per_image = kDescriptorsPerImage;
  config.num_modes = kModes;
  config.seed = kCollectionSeed;
  s.collection =
      std::make_unique<qvt::Collection>(qvt::GenerateCollection(config));
  const int64_t t1 = NowNanos();
  tracer->Record(Layer::kGenerate, rep, t0, t1);

  qvt::SrTreeChunker chunker(kChunkSize);
  auto chunking = chunker.FormChunks(*s.collection);
  if (!chunking.ok()) return chunking.status();
  const int64_t t2 = NowNanos();
  tracer->Record(Layer::kFormChunks, rep, t1, t2);

  std::filesystem::create_directories(dir);
  const qvt::ChunkIndexPaths paths =
      qvt::ChunkIndexPaths::ForBase(dir + "/index");
  auto built = qvt::ChunkIndex::Build(*s.collection, *chunking,
                                      qvt::Env::Posix(), paths);
  if (!built.ok()) return built.status();
  auto opened = qvt::ChunkIndex::Open(qvt::Env::Posix(), paths,
                                      qvt::kDescriptorDim,
                                      qvt::IndexOpenMode::kMmap);
  if (!opened.ok()) return opened.status();
  s.index = std::make_unique<qvt::ChunkIndex>(std::move(opened).value());
  const int64_t t3 = NowNanos();
  tracer->Record(Layer::kIndexBuild, rep, t2, t3);

  qvt::MethodContext context;
  context.collection = s.collection.get();
  context.index = s.index.get();
  context.cost_model = qvt::DiskCostModel();
  context.cache = nullptr;
  context.prefetch = PinnedPrefetch();
  context.env = qvt::Env::Posix();
  auto method = qvt::MethodRegistry::Global().Create("chunked", context);
  if (!method.ok()) return method.status();
  s.method = std::move(method).value();
  if (qvt::Status st = s.method->Prepare(); !st.ok()) return st;
  s.seconds = static_cast<double>(NowNanos() - t0) * 1e-9;
  s.load_seconds = static_cast<double>(t3 - t1) * 1e-9;
  return s;
}

struct Request {
  qvt::Workload queries;
  qvt::ImageId source = 0;
};

std::vector<Request> MakePool(const qvt::Collection& collection,
                              uint64_t seed) {
  qvt::Rng rng = qvt::Rng::Stream(seed, kPoolStream);
  std::vector<Request> pool(kPoolSize);
  std::vector<std::vector<size_t>> rows_of(kImages);
  for (size_t pos = 0; pos < collection.size(); ++pos) {
    rows_of[collection.Image(pos)].push_back(pos);
  }
  std::vector<bool> taken(kImages, false);
  for (Request& request : pool) {
    qvt::ImageId image = 0;
    do {
      image = static_cast<qvt::ImageId>(rng.Uniform(kImages));
    } while (taken[image] || rows_of[image].empty());
    taken[image] = true;
    request.source = image;
    request.queries.name = "image";
    request.queries.dim = collection.dim();
    for (const size_t pos : rows_of[image]) {
      const auto v = collection.Vector(pos);
      request.queries.queries.insert(request.queries.queries.end(), v.begin(),
                                     v.end());
    }
  }
  return pool;
}

/// Seeded request order: the pool shuffled afresh every round.
class RequestOrder {
 public:
  RequestOrder(size_t pool, uint64_t seed)
      : rng_(qvt::Rng::Stream(seed, kOrderStream)), order_(pool) {
    for (size_t i = 0; i < pool; ++i) order_[i] = i;
    next_ = pool;
  }
  size_t Next() {
    if (next_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  qvt::Rng rng_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Empty when `got` answers every query exactly as `reference` did.
std::string CompareToReference(const qvt::BatchSearchResult& got,
                               const std::vector<qvt::MethodResult>& ref) {
  if (got.results.size() != ref.size()) return "request answer count changed";
  for (size_t q = 0; q < ref.size(); ++q) {
    if (!SameNeighbors(got.results[q].neighbors, ref[q].neighbors) ||
        got.results[q].telemetry.exact != ref[q].telemetry.exact) {
      return "answer differs from the request's reference answer";
    }
  }
  return "";
}

/// Replays one query the way Searcher::Search executes it under the
/// max-chunks rule, one public layer call at a time, with a span around
/// each call; the per-layer metrics are derived from those spans.
qvt::StatusOr<qvt::MethodResult> ReplayQuery(const qvt::Searcher& searcher,
                                             const qvt::ChunkIndex& index,
                                             std::span<const float> query,
                                             size_t max_chunks,
                                             uint32_t request, Tracer* tracer) {
  const int64_t q0 = NowNanos();
  qvt::SearchScratch scratch;
  searcher.RankChunks(query, scratch);
  tracer->Record(Layer::kRankChunks, request, q0, NowNanos());

  qvt::KnnResultSet result_set(kK);
  qvt::MethodResult out;
  std::vector<double> distances(kScanBlock);
  qvt::ChunkData data;
  const size_t chunks = std::min(max_chunks, index.num_chunks());
  for (size_t r = 0; r < chunks; ++r) {
    const uint32_t chunk_id = scratch.rank_order[r];
    const int64_t f0 = NowNanos();
    if (qvt::Status st = index.ReadChunk(chunk_id, &data); !st.ok()) return st;
    tracer->Record(Layer::kReadChunk, request, f0, NowNanos());

    for (size_t b = 0; b < data.size(); b += kScanBlock) {
      const size_t bn = std::min(kScanBlock, data.size() - b);
      const double threshold =
          qvt::kernels::AbandonThreshold(result_set.KthDistance());
      const int64_t k0 = NowNanos();
      qvt::kernels::BatchSquaredDistanceAbandon(
          data.values.data() + b * data.dim, bn, data.dim, query, threshold,
          distances.data());
      const int64_t k1 = NowNanos();
      tracer->Record(Layer::kKernel, request, k0, k1,
                     static_cast<uint32_t>(bn));
      uint32_t offered = 0;
      for (size_t i = 0; i < bn; ++i) {
        if (distances[i] == qvt::kernels::kAbandoned) continue;
        result_set.Insert(data.ids[b + i], std::sqrt(distances[i]));
        ++offered;
      }
      tracer->Record(Layer::kResultInsert, request, k1, NowNanos(), offered);
    }
  }
  out.neighbors = result_set.Sorted();
  out.telemetry.chunks_read = chunks;
  tracer->Record(Layer::kReplayQuery, request, q0, NowNanos());
  return out;
}

/// Rows per second of the scan kernel over a resident block: the same
/// kernel and block size as the replay, no pruning, rows already in cache.
double KernelCeilingRowsPerSecond(const qvt::Collection& collection,
                                  std::span<const float> query) {
  const size_t rows = std::min<size_t>(collection.size(), 40 * kScanBlock);
  const float* base = collection.RawData().data();
  std::vector<double> out(kScanBlock);
  const double inf = std::numeric_limits<double>::infinity();
  uint64_t done = 0;
  const int64_t t0 = NowNanos();
  int64_t elapsed = 0;
  while (elapsed < 200'000'000) {
    for (size_t b = 0; b < rows; b += kScanBlock) {
      const size_t bn = std::min(kScanBlock, rows - b);
      qvt::kernels::BatchSquaredDistanceAbandon(
          base + b * collection.dim(), bn, collection.dim(), query, inf,
          out.data());
      done += bn;
    }
    elapsed = NowNanos() - t0;
  }
  return static_cast<double>(done) / (static_cast<double>(elapsed) * 1e-9);
}

}  // namespace

RunReport RunStaticWorkload(const RunOptions& options) {
  const qvt::StopRule stop = qvt::StopRule::MaxChunks(kMaxChunks);
  RunReport report;
  report.config.workers = kWorkers;
  Tracer tracer(options.trace);
  FailureLedger& ledger = report.ledger;

  // --- Set-up. The first index serves the run; the other repetitions are
  // spread over the timed phase (off its clock), so setup_s samples the
  // host across the whole run as the request metrics do.
  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  auto set_up = [&](uint32_t rep) -> qvt::StatusOr<StaticIndex> {
    auto setup =
        SetUp(options.work_dir + "/setup" + std::to_string(rep), rep, &tracer);
    if (!setup.ok()) {
      ledger.Record("set-up failed: " + setup.status().ToString());
    } else {
      setup_seconds.push_back(setup->seconds);
      load_seconds.push_back(setup->load_seconds);
    }
    return setup;
  };
  auto first = set_up(0);
  if (!first.ok()) return report;
  const StaticIndex live = std::move(first).value();
  const qvt::Collection& collection = *live.collection;
  std::vector<qvt::ImageId> image_of(collection.size());
  for (size_t pos = 0; pos < collection.size(); ++pos) {
    image_of[pos] = collection.Image(pos);
  }

  // --- Reference pass: every pool request once, checked off the clock. ----
  const std::vector<Request> pool = MakePool(collection, options.seed);
  qvt::BatchSearcher batch(live.method.get(), kWorkers, /*shared_scan=*/true);
  std::vector<std::vector<qvt::MethodResult>> reference(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    auto result = batch.SearchAll(pool[p].queries, kK, stop);
    if (!result.ok()) {
      ledger.Record("request failed: " + result.status().ToString());
      continue;
    }
    reference[p] = std::move(result->results);
  }

  // ExactScan ground truth for every pool query.
  struct QueryRef {
    size_t request;
    size_t query;
  };
  std::vector<QueryRef> flat;
  for (size_t p = 0; p < pool.size(); ++p) {
    for (size_t q = 0; q < pool[p].queries.num_queries(); ++q) {
      flat.push_back({p, q});
    }
  }
  std::vector<std::vector<qvt::Neighbor>> truth(flat.size());
  qvt::SetBuildThreads(kGroundTruthThreads);
  qvt::ParallelFor(flat.size(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      truth[i] = qvt::ExactScan(
          collection, pool[flat[i].request].queries.Query(flat[i].query), kK);
    }
  });
  qvt::SetBuildThreads(kBuildThreads);

  double recall_sum = 0.0;
  double model_ms_sum = 0.0;
  size_t top1_hits = 0;
  size_t answered = 0;
  for (size_t p = 0, i = 0; p < pool.size(); ++p) {
    const size_t nq = pool[p].queries.num_queries();
    if (reference[p].size() != nq) {
      i += nq;
      continue;
    }
    // The exact rule is not timed, but its answers are checked: the first
    // pool requests are answered again under it.
    std::vector<qvt::MethodResult> exact;
    if (p < kExactChecks) {
      auto result = batch.SearchAll(pool[p].queries, kK, qvt::StopRule::Exact());
      if (result.ok()) exact = std::move(result->results);
      ledger.Record(result.ok() ? "" : "exact request failed: " +
                                           result.status().ToString());
    }
    std::string problem;
    double model_micros = 0.0;
    for (size_t q = 0; q < nq; ++q, ++i) {
      const qvt::MethodResult& got = reference[p][q];
      std::string check =
          CheckApproximate(got.neighbors, pool[p].queries.Query(q), collection);
      if (check.empty() && got.neighbors.size() != kK) {
        check = "answer has fewer than k neighbors";
      }
      if (check.empty() && q < exact.size()) check = CheckExact(exact[q], truth[i]);
      if (problem.empty()) problem = check;
      recall_sum += Recall(got.neighbors, truth[i]);
      model_micros += static_cast<double>(got.telemetry.model_micros);
    }
    ledger.Record(problem);
    qvt::ImageId top = 0;
    if (TopImage(reference[p], image_of, &top) && top == pool[p].source) {
      ++top1_hits;
    }
    model_ms_sum += model_micros * 1e-3;
    ++answered;
  }

  // --- Timed phase: closed loop over the seeded order. --------------------
  // The traced run issues every request twice back to back, once with its
  // span recorded and once without (alternating which goes first), so the
  // overhead ratio compares the same work. Set-up repetitions pause the
  // clocks; one untimed request after each warms the caches again.
  // Peak memory of serving: set-up, reference pass and ground truth. The
  // extra set-ups below hold a second index only to sample setup_s, and
  // how much of it the allocator keeps resident varies from run to run.
  const double peak_rss_mib = PeakRssMiB();
  RequestOrder order(pool.size(), options.seed);
  const size_t min_samples =
      options.trace ? 0 : MinSamplesForTail(kTailPercentile, kSamplesBeyondTail);
  std::vector<int64_t> latencies;
  std::vector<double> overhead_pairs;
  std::vector<uint64_t> traced_runs(pool.size(), 0);
  int64_t traced_wall = 0;
  qvt::SharedScanStats shared;
  const auto run_request = [&](size_t p) {
    auto result = batch.SearchAll(pool[p].queries, kK, stop);
    ledger.Record(result.ok() ? CompareToReference(*result, reference[p])
                              : "request failed: " + result.status().ToString());
    return result;
  };
  const int64_t seconds_ns = static_cast<int64_t>(options.seconds * 1e9);
  const CpuStat stat0 = CpuStat::Read();
  int64_t phase_nanos = 0;  // timed wall, set-up pauses excluded
  double cpu_seconds = 0.0;
  int64_t segment_start = NowNanos();
  double segment_cpu = ProcessCpuSeconds();
  uint32_t setups = 1;
  const auto timed = [&] { return phase_nanos + NowNanos() - segment_start; };
  // Runs one more set-up repetition for setup_s and discards its index.
  const auto extra_set_up = [&](uint32_t rep) {
    const bool ok = set_up(rep).ok();
    std::filesystem::remove_all(options.work_dir + "/setup" +
                                std::to_string(rep));
    return ok;
  };
  for (size_t n = 0; (timed() < seconds_ns || latencies.size() < min_samples) &&
                     timed() < 3 * seconds_ns;
       ++n) {
    if (setups < kSetupRepetitions &&
        timed() >= seconds_ns * static_cast<int64_t>(setups) /
                       static_cast<int64_t>(kSetupRepetitions)) {
      phase_nanos += NowNanos() - segment_start;
      cpu_seconds += ProcessCpuSeconds() - segment_cpu;
      if (!extra_set_up(setups++)) break;
      run_request(order.Next());
      segment_start = NowNanos();
      segment_cpu = ProcessCpuSeconds();
    }
    const size_t p = order.Next();
    int64_t wall[2] = {0, 0};  // untraced, traced
    for (size_t pass = 0; pass < (options.trace ? 2 : 1); ++pass) {
      const bool traced = options.trace && (n + pass) % 2 == 1;
      const int64_t t0 = NowNanos();
      auto result = run_request(p);
      const int64_t t1 = NowNanos();
      wall[traced ? 1 : 0] = t1 - t0;
      if (!traced) {
        latencies.push_back(t1 - t0);
        continue;
      }
      tracer.Record(Layer::kSearchAll, static_cast<uint32_t>(p), t0, t1);
      traced_wall += t1 - t0;
      ++traced_runs[p];
      if (result.ok()) shared += result->shared;
    }
    if (options.trace) {
      overhead_pairs.push_back(static_cast<double>(wall[0]) /
                               static_cast<double>(wall[1]));
    }
  }
  phase_nanos += NowNanos() - segment_start;
  cpu_seconds += ProcessCpuSeconds() - segment_cpu;
  report.config.steal_share = CpuStat::Read().StealShareSince(stat0);
  while (setups < kSetupRepetitions && extra_set_up(setups)) ++setups;
  if (!options.trace) {
    const LatencySummary lat = SummarizeLatencies(latencies);
    const double n = static_cast<double>(latencies.size());
    report.metrics = {
        {"requests_per_s", "1/s",
         n / (static_cast<double>(phase_nanos) * 1e-9)},
        {"request_p50_ms", "ms", lat.p50_ms},
        {"request_p95_ms", "ms", lat.p95_ms},
        {"cpu_ms_per_request", "ms", cpu_seconds * 1e3 / n},
        {"recall_at_10", "ratio",
         recall_sum / static_cast<double>(flat.size())},
        {"image_top1", "ratio",
         static_cast<double>(top1_hits) / static_cast<double>(pool.size())},
        {"model_ms_per_request", "ms",
         model_ms_sum / static_cast<double>(std::max<size_t>(answered, 1))},
        // The static index's write path is its bulk load: rows made
        // searchable per second of chunking, index writing and opening.
        {"insert_rows_per_s", "1/s",
         static_cast<double>(collection.size()) / Median(load_seconds)},
        {"setup_s", "s", Median(setup_seconds)},
        {"peak_rss_mb", "MiB", peak_rss_mib},
    };
    return report;
  }

  // --- Traced run: replay every pool query layer by layer. ----------------
  const qvt::Searcher searcher(live.index.get(), qvt::DiskCostModel(),
                               /*cache=*/nullptr, PinnedPrefetch());
  uint64_t bytes = 0;
  for (size_t p = 0; p < pool.size(); ++p) {
    for (size_t q = 0; q < pool[p].queries.num_queries(); ++q) {
      auto replayed =
          ReplayQuery(searcher, *live.index, pool[p].queries.Query(q),
                      kMaxChunks, static_cast<uint32_t>(p), &tracer);
      std::string problem;
      if (!replayed.ok()) {
        problem = "replay failed: " + replayed.status().ToString();
      } else if (reference[p].size() <= q ||
                 !SameNeighbors(replayed->neighbors,
                                reference[p][q].neighbors) ||
                 replayed->telemetry.chunks_read !=
                     reference[p][q].telemetry.chunks_read ||
                 replayed->telemetry.exact !=
                     reference[p][q].telemetry.exact) {
        problem = "replay differs from the method's answer";
      } else {
        bytes += reference[p][q].telemetry.bytes_read;
      }
      ledger.Record(problem);
    }
  }
  // Replay time of every traced request: its queries' replay spans, once
  // per time the request was traced.
  double replayed_for_traced = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.layer == Layer::kReplayQuery) {
      replayed_for_traced += static_cast<double>(traced_runs[span.request]) *
                             static_cast<double>(span.end_ns - span.start_ns);
    }
  }


  const Tracer::Totals plan = tracer.Sum(Layer::kRankChunks);
  const Tracer::Totals read = tracer.Sum(Layer::kReadChunk);
  const Tracer::Totals kernel = tracer.Sum(Layer::kKernel);
  const Tracer::Totals insert = tracer.Sum(Layer::kResultInsert);
  const Tracer::Totals query = tracer.Sum(Layer::kReplayQuery);
  const double queries = static_cast<double>(query.spans);
  report.metrics = {
      {"descriptor.generate_s", "s", Median(tracer.Seconds(Layer::kGenerate))},
      {"cluster.form_chunks_s", "s",
       Median(tracer.Seconds(Layer::kFormChunks))},
      {"storage.index_build_s", "s",
       Median(tracer.Seconds(Layer::kIndexBuild))},
      {"core.searcher.plan_us_per_query", "us",
       static_cast<double>(plan.nanos) * 1e-3 / queries},
      {"core.searcher.plan_share", "ratio",
       static_cast<double>(plan.nanos) / static_cast<double>(query.nanos)},
      {"storage.read_us_per_chunk", "us",
       static_cast<double>(read.nanos) * 1e-3 /
           static_cast<double>(read.spans)},
      {"storage.chunks_per_query", "count",
       static_cast<double>(read.spans) / queries},
      {"storage.bytes_per_query", "B", static_cast<double>(bytes) / queries},
      {"geometry.kernels.scan_us_per_query", "us",
       static_cast<double>(kernel.nanos) * 1e-3 / queries},
      {"geometry.kernels.rows_per_s", "1/s",
       static_cast<double>(kernel.count) /
           (static_cast<double>(kernel.nanos) * 1e-9)},
      {"geometry.kernels.ceiling_rows_per_s", "1/s",
       KernelCeilingRowsPerSecond(collection, pool[0].queries.Query(0))},
      {"geometry.kernels.abandoned_ratio", "ratio",
       static_cast<double>(kernel.count - insert.count) /
           static_cast<double>(kernel.count)},
      {"core.result_set.inserts_per_query", "count",
       static_cast<double>(insert.count) / queries},
      {"core.result_set.insert_us_per_query", "us",
       static_cast<double>(insert.nanos) * 1e-3 / queries},
      {"core.batch.replay_ratio", "ratio",
       replayed_for_traced / (static_cast<double>(kWorkers) *
                              static_cast<double>(traced_wall))},
      {"core.batch.coalescing", "ratio",
       static_cast<double>(shared.chunk_attachments) /
           static_cast<double>(shared.chunk_fetches)},
      {"trace.overhead_ratio", "ratio", Median(overhead_pairs)},
  };
  if (qvt::Status st = tracer.Write(options.trace_out); !st.ok()) {
    ledger.Record("trace not written: " + st.ToString());
  }
  return report;
}

}  // namespace perfbench

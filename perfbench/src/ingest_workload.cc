// ingest_mixed: a live collection under a fixed, seeded script of writes
// and reads through the dynamic layer.
//
// Set-up wraps "chunked" in a DynamicIndex (default ExtensionConfig) and
// bulk-loads the first half of a 500-image collection through Insert plus
// Compact. Each script step then makes 64 Inserts of unseen rows, 8 Deletes
// of random live ids, and one image request: the live descriptors of a
// random live image, MaxChunks(8), BatchSearcher on 1 worker. The step
// count depends only on --seconds, so flushes and merges fall at the same
// script positions in every run. After the script, a mirror of the live
// set is replayed step by step and every answer is checked off the clock:
// ids live at that step, ascending (distance, id) order, distances equal to
// recomputed L2, and recall against ExactScan over that step's live rows.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_searcher.h"
#include "core/exact_scan.h"
#include "descriptor/generator.h"
#include "dynamic/dynamic_index.h"
#include "trace.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

/// A separate, smaller collection (38,382 rows at generator seed 42):
/// merges run balanced k-means, whose cost grows quickly with shard size
/// (see README.md). The collection is the same in every run; the workload
/// seed draws the script's deletes and requests.
constexpr uint64_t kCollectionSeed = 42;
constexpr size_t kImages = 500;
constexpr size_t kDescriptorsPerImage = 75;
constexpr size_t kModes = 20;
constexpr size_t kInsertsPerStep = 64;
constexpr size_t kDeletesPerStep = 8;
/// Script length per second of --seconds, fixed so a run of a given length
/// always executes the same script.
constexpr double kStepsPerSecond = 12.0;
constexpr uint64_t kScriptStream = 3;
/// Set-up is repeated this many times per run; setup_s is the median. Each
/// set-up builds a 19k-row shard with balanced k-means, so fewer
/// repetitions than image_approx.
constexpr size_t kSetupRepetitions = 3;

qvt::DynamicOptions PinnedDynamicOptions() {
  qvt::DynamicOptions options;
  options.method = "chunked";
  options.method_params = "";
  options.dim = qvt::kDescriptorDim;
  options.extension = qvt::ExtensionConfig();
  options.target_chunk_size = 256;
  options.cost_model = qvt::DiskCostModel();
  options.prefetch = PinnedPrefetch();
  options.open_mode = qvt::IndexOpenMode::kMmap;
  return options;
}

/// Create, bulk-load rows [0, rows) through Insert, Compact.
qvt::StatusOr<std::unique_ptr<qvt::DynamicIndex>> SetUp(
    const qvt::Collection& collection, size_t rows, const std::string& dir) {
  std::filesystem::create_directories(dir);
  auto index = qvt::DynamicIndex::Create(qvt::Env::Posix(), dir + "/dyn",
                                         PinnedDynamicOptions());
  if (!index.ok()) return index.status();
  for (size_t pos = 0; pos < rows; ++pos) {
    qvt::Status st = (*index)->Insert(collection.Id(pos), collection.Vector(pos),
                                      collection.Image(pos));
    if (!st.ok()) return st;
  }
  if (qvt::Status st = (*index)->Compact(); !st.ok()) return st;
  return std::move(index).value();
}

/// What one script step did and got, kept for the checks after the script.
struct StepLog {
  size_t inserted_end = 0;  ///< rows [0, inserted_end) inserted so far
  std::vector<qvt::DescriptorId> deleted;
  qvt::ImageId image = 0;
  std::vector<size_t> rows;  ///< the request's query rows
  std::vector<std::vector<qvt::Neighbor>> answers;
  bool answered = false;
};

}  // namespace

RunReport RunIngestWorkload(const RunOptions& options) {
  RunReport report;
  report.config.workers = 1;
  Tracer tracer(options.trace);
  FailureLedger& ledger = report.ledger;

  const int64_t g0 = NowNanos();
  qvt::GeneratorConfig config;
  config.num_images = kImages;
  config.descriptors_per_image = kDescriptorsPerImage;
  config.num_modes = kModes;
  config.seed = kCollectionSeed;
  const qvt::Collection collection = qvt::GenerateCollection(config);
  tracer.Record(Layer::kGenerate, 0, g0, NowNanos());
  const size_t half = collection.size() / 2;

  // --- Set-up, repeated; the last index serves the script. ----------------
  std::vector<double> setup_seconds;
  std::unique_ptr<qvt::DynamicIndex> index;
  for (uint32_t rep = 0; rep < kSetupRepetitions; ++rep) {
    index.reset();
    const int64_t t0 = NowNanos();
    auto setup = SetUp(collection, half,
                       options.work_dir + "/setup" + std::to_string(rep));
    if (!setup.ok()) {
      ledger.Record("set-up failed: " + setup.status().ToString());
      return report;
    }
    index = std::move(setup).value();
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }

  // --- The script. ---------------------------------------------------------
  std::vector<std::vector<size_t>> rows_of(kImages);
  for (size_t pos = 0; pos < collection.size(); ++pos) {
    rows_of[collection.Image(pos)].push_back(pos);
  }
  std::vector<qvt::DescriptorId> live_ids(half);
  std::vector<char> live(collection.size(), 0);
  for (size_t pos = 0; pos < half; ++pos) {
    live_ids[pos] = static_cast<qvt::DescriptorId>(pos);
    live[pos] = 1;
  }
  const size_t max_steps = (collection.size() - half) / kInsertsPerStep;
  const size_t steps = std::min(
      max_steps,
      std::max(MinSamplesForTail(kTailPercentile, kSamplesBeyondTail),
               static_cast<size_t>(options.seconds * kStepsPerSecond)));
  qvt::Rng rng = qvt::Rng::Stream(options.seed, kScriptStream);
  qvt::BatchSearcher batch(index.get(), /*num_threads=*/1,
                           /*shared_scan=*/true);
  const qvt::StopRule stop = qvt::StopRule::MaxChunks(8);

  std::vector<StepLog> log(steps);
  std::vector<int64_t> latencies;
  std::vector<int64_t> step_walls;
  int64_t write_nanos = 0;
  size_t next_row = half;
  double model_ms_sum = 0.0;
  double shards_sum = 0.0;
  double tombstones_sum = 0.0;
  double chunks_sum = 0.0;
  double bytes_sum = 0.0;
  double buffer_wall = 0.0;
  double attributed_wall = 0.0;
  size_t queries = 0;
  qvt::SharedScanStats shared;
  const qvt::DynamicStats stats0 = index->Stats();

  const CpuStat stat0 = CpuStat::Read();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNanos();
  for (size_t s = 0; s < steps; ++s) {
    StepLog& step = log[s];
    // Steps pair up (2k, 2k + 1); one of each pair is traced, alternating
    // which, so the overhead ratio is not biased by the script's growth.
    const bool traced = options.trace && (s / 2 + s) % 2 == 1;
    const uint32_t request = static_cast<uint32_t>(s);
    const int64_t w0 = NowNanos();
    for (size_t i = 0; i < kInsertsPerStep; ++i, ++next_row) {
      const int64_t c0 = traced ? NowNanos() : 0;
      const qvt::Status st =
          index->Insert(collection.Id(next_row), collection.Vector(next_row),
                        collection.Image(next_row));
      if (traced) tracer.Record(Layer::kInsert, request, c0, NowNanos());
      ledger.Record(st.ok() ? "" : "insert failed: " + st.ToString());
      live_ids.push_back(static_cast<qvt::DescriptorId>(next_row));
      live[next_row] = 1;
    }
    for (size_t i = 0; i < kDeletesPerStep; ++i) {
      const size_t j = rng.Uniform(live_ids.size());
      const qvt::DescriptorId id = live_ids[j];
      const int64_t c0 = traced ? NowNanos() : 0;
      const qvt::Status st = index->Delete(id);
      if (traced) tracer.Record(Layer::kDelete, request, c0, NowNanos());
      ledger.Record(st.ok() ? "" : "delete failed: " + st.ToString());
      live_ids[j] = live_ids.back();
      live_ids.pop_back();
      live[id] = 0;
      step.deleted.push_back(id);
    }
    const int64_t w1 = NowNanos();
    write_nanos += w1 - w0;
    step.inserted_end = next_row;

    step.image = collection.Image(live_ids[rng.Uniform(live_ids.size())]);
    qvt::Workload request_queries;
    request_queries.name = "image";
    request_queries.dim = collection.dim();
    for (const size_t pos : rows_of[step.image]) {
      if (!live[pos]) continue;
      step.rows.push_back(pos);
      const auto v = collection.Vector(pos);
      request_queries.queries.insert(request_queries.queries.end(), v.begin(),
                                     v.end());
    }
    const int64_t r0 = NowNanos();
    auto result = batch.SearchAll(request_queries, kK, stop);
    const int64_t r1 = NowNanos();
    latencies.push_back(r1 - r0);
    step_walls.push_back(r1 - w0);
    if (traced) tracer.Record(Layer::kSearchAll, request, r0, r1);
    if (!result.ok()) {
      ledger.Record("request failed: " + result.status().ToString());
      continue;
    }
    step.answered = true;
    double model_micros = 0.0;
    for (qvt::MethodResult& answer : result->results) {
      const qvt::QueryTelemetry& t = answer.telemetry;
      model_micros += static_cast<double>(t.model_micros);
      shards_sum += static_cast<double>(t.shards_searched);
      tombstones_sum += static_cast<double>(t.tombstones_filtered);
      chunks_sum += static_cast<double>(t.chunks_read);
      bytes_sum += static_cast<double>(t.bytes_read);
      for (const qvt::ShardAttribution& a : answer.shards) {
        attributed_wall += static_cast<double>(a.wall_micros);
        if (a.shard_id == qvt::ShardAttribution::kMutableBuffer) {
          buffer_wall += static_cast<double>(a.wall_micros);
        }
      }
      step.answers.push_back(std::move(answer.neighbors));
      ++queries;
    }
    model_ms_sum += model_micros * 1e-3;
    shared += result->shared;
  }
  const int64_t script_nanos = NowNanos() - start;
  const double cpu_seconds = ProcessCpuSeconds() - cpu0;
  report.config.steal_share = CpuStat::Read().StealShareSince(stat0);
  const qvt::DynamicStats stats1 = index->Stats();

  // --- Checks off the clock: replay the live set step by step. ------------
  qvt::SetBuildThreads(kGroundTruthThreads);
  std::fill(live.begin(), live.end(), 0);
  std::fill(live.begin(), live.begin() + half, 1);
  size_t inserted = half;
  std::vector<qvt::ImageId> image_of(collection.size());
  for (size_t pos = 0; pos < collection.size(); ++pos) {
    image_of[pos] = collection.Image(pos);
  }
  double recall_sum = 0.0;
  size_t top1_hits = 0;
  for (const StepLog& step : log) {
    for (; inserted < step.inserted_end; ++inserted) live[inserted] = 1;
    for (const qvt::DescriptorId id : step.deleted) live[id] = 0;
    if (!step.answered) continue;
    std::vector<size_t> positions;
    for (size_t pos = 0; pos < collection.size(); ++pos) {
      if (live[pos]) positions.push_back(pos);
    }
    const qvt::Collection live_rows = collection.Subset(positions);
    const size_t nq = step.rows.size();
    std::vector<std::string> problems(nq);
    std::vector<double> recalls(nq);
    qvt::ParallelFor(nq, 4, [&](size_t begin, size_t end) {
      for (size_t q = begin; q < end; ++q) {
        const auto query = collection.Vector(step.rows[q]);
        const std::vector<qvt::Neighbor> truth =
            qvt::ExactScan(live_rows, query, kK);
        recalls[q] = Recall(step.answers[q], truth);
        problems[q] = CheckApproximate(step.answers[q], query, collection);
        if (problems[q].empty() && step.answers[q].size() != kK) {
          problems[q] = "answer has fewer than k neighbors";
        }
        for (const qvt::Neighbor& n : step.answers[q]) {
          if (problems[q].empty() && !live[n.id]) {
            problems[q] = "answer holds deleted id " + std::to_string(n.id);
          }
        }
      }
    });
    std::string problem;
    for (size_t q = 0; q < nq; ++q) {
      recall_sum += recalls[q];
      if (problem.empty()) problem = problems[q];
    }
    ledger.Record(problem);
    std::vector<qvt::MethodResult> answers(nq);
    for (size_t q = 0; q < nq; ++q) answers[q].neighbors = step.answers[q];
    qvt::ImageId top = 0;
    if (TopImage(answers, image_of, &top) && top == step.image) ++top1_hits;
  }

  const double n = static_cast<double>(steps);
  const double nq = static_cast<double>(std::max<size_t>(queries, 1));
  if (!options.trace) {
    const LatencySummary lat = SummarizeLatencies(latencies);
    report.metrics = {
        {"requests_per_s", "1/s",
         n / (static_cast<double>(script_nanos) * 1e-9)},
        {"request_p50_ms", "ms", lat.p50_ms},
        {"request_p95_ms", "ms", lat.p95_ms},
        {"cpu_ms_per_request", "ms", cpu_seconds * 1e3 / n},
        {"recall_at_10", "ratio", recall_sum / nq},
        {"image_top1", "ratio", static_cast<double>(top1_hits) / n},
        {"model_ms_per_request", "ms", model_ms_sum / n},
        {"insert_rows_per_s", "1/s",
         static_cast<double>(steps * kInsertsPerStep) /
             (static_cast<double>(write_nanos) * 1e-9)},
        {"setup_s", "s", Median(setup_seconds)},
        {"peak_rss_mb", "MiB", PeakRssMiB()},
    };
    return report;
  }

  // Each pair of adjacent steps, one traced, does near-equal work.
  std::vector<double> overhead_pairs;
  for (size_t s = 1; s < step_walls.size(); s += 2) {
    const bool second_traced = (s / 2) % 2 == 0;
    const double first = static_cast<double>(step_walls[s - 1]);
    const double second = static_cast<double>(step_walls[s]);
    overhead_pairs.push_back(second_traced ? first / second : second / first);
  }
  uint64_t rows_out = 0;
  for (size_t e = stats0.events.size(); e < stats1.events.size(); ++e) {
    rows_out += stats1.events[e].rows_out;
  }
  const double inserts = static_cast<double>(stats1.inserts - stats0.inserts);
  report.metrics = {
      {"descriptor.generate_s", "s", Median(tracer.Seconds(Layer::kGenerate))},
      {"storage.chunks_per_query", "count", chunks_sum / nq},
      {"storage.bytes_per_query", "B", bytes_sum / nq},
      {"core.batch.coalescing", "ratio",
       static_cast<double>(shared.chunk_attachments) /
           static_cast<double>(shared.chunk_fetches)},
      {"dynamic.insert_us_p50", "us",
       Median(tracer.Seconds(Layer::kInsert)) * 1e6},
      {"dynamic.build_s_total", "s",
       static_cast<double>(stats1.build_wall_micros -
                           stats0.build_wall_micros) *
           1e-6},
      {"dynamic.flushes", "count",
       static_cast<double>(stats1.flushes - stats0.flushes)},
      {"dynamic.merges", "count",
       static_cast<double>(stats1.merges - stats0.merges)},
      {"dynamic.write_amp", "ratio", static_cast<double>(rows_out) / inserts},
      {"dynamic.shards_per_query", "count", shards_sum / nq},
      {"dynamic.buffer_share", "ratio", buffer_wall / attributed_wall},
      {"dynamic.tombstones_filtered_per_query", "count", tombstones_sum / nq},
      {"trace.overhead_ratio", "ratio", Median(overhead_pairs)},
  };
  if (qvt::Status st = tracer.Write(options.trace_out); !st.ok()) {
    ledger.Record("trace not written: " + st.ToString());
  }
  return report;
}

}  // namespace perfbench

// Dynamic-collection benchmark: the write path and the read path of the
// Bentley-Saxe extension layer, over the paper's chunked searcher.
//
// Three phases:
//
//  1. Ingest — half the descriptors streamed through Insert with
//     interleaved deletes; flushes and merge cascades fire as the mutable
//     buffer fills. Reports insert throughput and the merge amortization
//     ledger from DynamicStats: rows written per row inserted (write
//     amplification) and shard-build wall time amortized per insert.
//
//  2. Mixed read/write — reader threads stream k-NN queries while the
//     writer alternates batches between a *scratch* dynamic index (same
//     rows, same geometry, so the same insert + shard-build CPU profile —
//     but the measured index is untouched) and the measured index itself.
//     A query is tagged "steady" when it ran during a scratch batch and
//     "during merge" when a shard build (flush/merge/compaction) of the
//     measured index was in progress when it started; the rest are
//     discarded. The writer burns the same CPU in both tags and the
//     windows interleave, so the p99 comparison isolates reader blocking
//     from plain CPU contention and from index growth. Because readers
//     answer from the pre-merge snapshot and never take the writer lock,
//     the during-merge distribution must track the steady one: the hard
//     check is p99(during merge) <= 2x p99(steady).
//
//  3. Quality vs time — the recall / chunk-budget sweep against exact
//     ground truth over the *live* rows, then a Compact and an
//     equivalence check: the compacted dynamic index must answer
//     bit-identically to a static chunked build over the surviving rows
//     in insertion order.
//
// Wall-clock numbers are recorded in BENCH_dynamic.json; the equivalence
// check is a hard QVT_CHECK everywhere, the p99 bound only on the
// full-size run (under --tiny the few-hundred-microsecond queries make the
// small-sample wall-clock p99 scheduler noise, which this repo's benches
// never assert on in CI).
//
// Flags: --tiny (48 images, CI), --images N (default 200), --readers N
// (default 2), --json PATH (default BENCH_dynamic.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_searcher.h"
#include "core/evaluation.h"
#include "core/exact_scan.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "descriptor/workload.h"
#include "dynamic/dynamic_index.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace qvt {
namespace {

double NowMicros(const std::chrono::steady_clock::time_point& since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void WritePercentiles(std::ostream& out, const std::string& indent,
                      const char* label, const SampleStats& stats,
                      bool trailing_comma) {
  const LatencyPercentiles p = LatencyPercentiles::FromStats(stats);
  out << indent << "\"" << label << "\": {\"queries\": " << stats.count()
      << ", \"mean_micros\": " << p.mean << ", \"p50_micros\": " << p.p50
      << ", \"p95_micros\": " << p.p95 << ", \"p99_micros\": " << p.p99
      << ", \"max_micros\": " << p.max << "}"
      << (trailing_comma ? ",\n" : "\n");
}

struct SweepPoint {
  size_t max_chunks = 0;  ///< 0 = exact
  double recall = 0.0;
  LatencyPercentiles wall;
};

int Main(int argc, char** argv) {
  GeneratorConfig gen;
  gen.num_images = 200;
  gen.descriptors_per_image = 100;
  gen.num_modes = 20;
  gen.seed = 20260809;
  size_t num_readers = 2;
  bool tiny = false;
  std::string json_path = "BENCH_dynamic.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      gen.num_images = 48;
      tiny = true;
    }
    if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      gen.num_images = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      num_readers = std::max<size_t>(1, std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  const Collection collection = GenerateCollection(gen);
  const size_t n = collection.size();
  // Half the rows go in during ingest, the other half during the mixed
  // phase so the writer stays busy for the whole measurement window.
  const size_t ingest_rows = n / 2;
  std::cout << "### dynamic collections (" << n << " descriptors, "
            << num_readers << " reader(s))\n";

  DynamicOptions options;
  options.method = "chunked";
  options.extension.buffer_capacity = tiny ? 128 : 512;
  options.extension.scale_factor = 4;
  options.extension.policy = MergePolicy::kTiering;
  options.target_chunk_size = 128;
  const std::string base = "/tmp/qvt_bench_dynamic";
  auto index = DynamicIndex::Create(Env::Posix(), base, options);
  QVT_CHECK_OK(index.status());

  // --- Phase 1: ingest with interleaved deletes. --------------------------
  const size_t delete_every = 7;
  std::vector<char> dead(n, 0);
  const auto ingest_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ingest_rows; ++i) {
    QVT_CHECK_OK((*index)->Insert(collection.Id(i), collection.Vector(i),
                                  collection.Image(i)));
    if ((i + 1) % delete_every == 0 && i + 1 > delete_every) {
      const size_t victim = i - delete_every;
      QVT_CHECK_OK((*index)->Delete(collection.Id(victim)));
      dead[victim] = 1;
    }
  }
  const double ingest_s = NowMicros(ingest_start) * 1e-6;
  const DynamicStats ingest_stats = (*index)->Stats();
  uint64_t rows_written = 0;
  for (const MergeEvent& e : ingest_stats.events) rows_written += e.rows_out;
  const double write_amp =
      ingest_stats.inserts > 0
          ? static_cast<double>(rows_written) /
                static_cast<double>(ingest_stats.inserts)
          : 0.0;
  const double amortized_us =
      ingest_stats.inserts > 0
          ? static_cast<double>(ingest_stats.build_wall_micros) /
                static_cast<double>(ingest_stats.inserts)
          : 0.0;
  const double inserts_per_s =
      ingest_s > 0 ? static_cast<double>(ingest_stats.inserts) / ingest_s
                   : 0.0;
  std::printf("ingest: %llu inserts, %llu deletes in %.3f s — %.0f "
              "inserts/s\n",
              static_cast<unsigned long long>(ingest_stats.inserts),
              static_cast<unsigned long long>(ingest_stats.deletes),
              ingest_s, inserts_per_s);
  std::printf("merges: %llu flushes + %llu merges wrote %llu rows — write "
              "amplification %.2fx, %.2f us/insert amortized\n",
              static_cast<unsigned long long>(ingest_stats.flushes),
              static_cast<unsigned long long>(ingest_stats.merges),
              static_cast<unsigned long long>(rows_written), write_amp,
              amortized_us);
  std::printf("levels: %s\n", (*index)->DescribeLevels().c_str());

  // --- Phase 2: mixed read/write. -----------------------------------------
  const size_t k = 10;
  Rng rng(gen.seed ^ 0xd1);
  const Workload mixed_queries = MakeDatasetQueries(
      collection, std::min<size_t>(200, ingest_rows), &rng);
  // The scratch twin: identical geometry and row stream, so scratch
  // batches cost the writer the same CPU as measured batches.
  auto scratch = DynamicIndex::Create(Env::Posix(),
                                      base + ".scratch", options);
  QVT_CHECK_OK(scratch.status());
  // Per-reader, per-tag sample vectors; folded after the join (SampleStats
  // accumulation is single-threaded by contract).
  std::vector<std::vector<double>> steady_samples(num_readers);
  std::vector<std::vector<double>> merge_samples(num_readers);
  std::atomic<bool> writer_done{false};
  std::atomic<bool> scratch_phase{false};
  std::atomic<uint64_t> reader_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (size_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      size_t q = r;
      while (!writer_done.load(std::memory_order_acquire)) {
        const bool steady_window =
            scratch_phase.load(std::memory_order_relaxed);
        const bool merging = (*index)->MergeInProgress();
        const auto start = std::chrono::steady_clock::now();
        const auto result = (*index)->Search(
            mixed_queries.Query(q % mixed_queries.num_queries()), k,
            StopRule::Exact());
        const double micros = NowMicros(start);
        if (!result.ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
        } else if (merging) {
          merge_samples[r].push_back(micros);
        } else if (steady_window) {
          steady_samples[r].push_back(micros);
        }  // else: measured-batch window without an active shard build
        q += num_readers;
      }
    });
  }
  // The writer alternates batches: the batch goes to the scratch twin
  // first (readers collect steady samples under full writer load), then
  // the same rows go into the measured index (readers tag shard-build
  // windows). The small buffer keeps flushes and merges firing, and a
  // mid-stream Compact puts the longest possible shard build under the
  // readers.
  const size_t batch = options.extension.buffer_capacity;
  for (size_t batch_start = ingest_rows; batch_start < n;
       batch_start += batch) {
    const size_t batch_end = std::min(n, batch_start + batch);
    for (int target = 0; target < 2; ++target) {
      const bool to_scratch = target == 0;
      DynamicIndex* sink = to_scratch ? scratch->get() : index->get();
      scratch_phase.store(to_scratch, std::memory_order_relaxed);
      for (size_t i = batch_start; i < batch_end; ++i) {
        QVT_CHECK_OK(sink->Insert(collection.Id(i), collection.Vector(i),
                                  collection.Image(i)));
        if ((i + 1) % delete_every == 0) {
          const size_t victim = i + 1 - delete_every;
          if (victim >= ingest_rows &&
              (to_scratch || dead[victim] == 0)) {
            QVT_CHECK_OK(sink->Delete(collection.Id(victim)));
            if (!to_scratch) dead[victim] = 1;
          }
        }
      }
      if (batch_start <= ingest_rows + (n - ingest_rows) / 2 &&
          ingest_rows + (n - ingest_rows) / 2 < batch_end) {
        QVT_CHECK_OK(sink->Compact());
      }
      scratch_phase.store(false, std::memory_order_relaxed);
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  QVT_CHECK(reader_failures.load() == 0) << "reader queries failed";

  SampleStats steady;
  SampleStats during_merge;
  for (size_t r = 0; r < num_readers; ++r) {
    for (double s : steady_samples[r]) steady.Add(s);
    for (double s : merge_samples[r]) during_merge.Add(s);
  }
  const LatencyPercentiles steady_p = LatencyPercentiles::FromStats(steady);
  const LatencyPercentiles merge_p =
      LatencyPercentiles::FromStats(during_merge);
  const double p99_ratio =
      steady_p.p99 > 0 ? static_cast<double>(merge_p.p99) /
                             static_cast<double>(steady_p.p99)
                       : 0.0;
  std::printf("mixed: %zu steady queries (p50 %lld us, p99 %lld us), "
              "%zu during-merge queries (p50 %lld us, p99 %lld us)\n",
              steady.count(), static_cast<long long>(steady_p.p50),
              static_cast<long long>(steady_p.p99), during_merge.count(),
              static_cast<long long>(merge_p.p50),
              static_cast<long long>(merge_p.p99));
  std::printf("merges never block readers: during-merge p99 is %.2fx "
              "steady-state p99 (bound 2.0x)\n",
              p99_ratio);
  // The bound is asserted only on the full-size run: under --tiny the
  // queries are a few hundred microseconds, where a single scheduler
  // preemption swings the small-sample p99 by itself — the same reason the
  // other benches never assert wall-clock percentiles in CI. The full run's
  // millisecond-scale queries average that noise out.
  const bool p99_check_ran = !tiny && during_merge.count() >= 20 &&
                             steady.count() >= 20;
  if (p99_check_ran) {
    QVT_CHECK(p99_ratio <= 2.0)
        << "queries during merges are more than 2x slower (p99 "
        << merge_p.p99 << " us vs " << steady_p.p99 << " us)";
  } else {
    std::printf("p99 bound recorded but not asserted (%s; %zu/%zu tagged "
                "samples)\n",
                tiny ? "--tiny" : "too few samples", during_merge.count(),
                steady.count());
  }

  // --- Phase 3: quality sweep over the live rows. -------------------------
  Collection live(collection.dim());
  for (size_t i = 0; i < n; ++i) {
    if (dead[i] == 0) {
      live.Append(collection.Id(i), collection.Vector(i),
                  collection.Image(i));
    }
  }
  QVT_CHECK(live.size() == (*index)->live_rows())
      << "bench live-set bookkeeping diverged from the index";
  Rng sweep_rng(gen.seed ^ 0x5eed);
  const Workload sweep_queries = MakeDatasetQueries(
      live, std::min<size_t>(tiny ? 60 : 150, live.size()), &sweep_rng);
  const GroundTruth truth = GroundTruth::Compute(live, sweep_queries, k);
  const std::vector<size_t> budgets{1, 2, 4, 8, 0};
  std::vector<SweepPoint> sweep;
  for (const size_t budget : budgets) {
    const StopRule stop =
        budget > 0 ? StopRule::MaxChunks(budget) : StopRule::Exact();
    SampleStats wall;
    double recall = 0.0;
    for (size_t q = 0; q < sweep_queries.num_queries(); ++q) {
      const auto start = std::chrono::steady_clock::now();
      const auto result = (*index)->Search(sweep_queries.Query(q), k, stop);
      wall.Add(NowMicros(start));
      QVT_CHECK_OK(result.status());
      recall += PrecisionAtK(result->neighbors, truth.TruthFor(q), k);
    }
    recall /= static_cast<double>(sweep_queries.num_queries());
    SweepPoint point;
    point.max_chunks = budget;
    point.recall = recall;
    point.wall = LatencyPercentiles::FromStats(wall);
    sweep.push_back(point);
    std::printf("sweep: budget %zu chunks/shard — recall %.4f, wall p50 "
                "%lld us, p99 %lld us\n",
                budget, recall, static_cast<long long>(point.wall.p50),
                static_cast<long long>(point.wall.p99));
  }

  // --- Compaction equivalence: dynamic == static over the live rows. ------
  QVT_CHECK_OK((*index)->Compact());
  ShardBuildContext build_context;
  build_context.data = std::make_shared<Collection>(std::move(live));
  build_context.env = Env::Posix();
  build_context.artifact_base = base + ".static-reference";
  build_context.target_chunk_size = options.target_chunk_size;
  auto reference = MethodRegistry::Global().BuildShard(
      options.method, build_context, options.method_params);
  QVT_CHECK_OK(reference.status());
  size_t equivalence_mismatches = 0;
  for (size_t q = 0; q < sweep_queries.num_queries(); ++q) {
    const auto got =
        (*index)->Search(sweep_queries.Query(q), k, StopRule::Exact());
    const auto want = reference->method->Search(sweep_queries.Query(q), k,
                                                StopRule::Exact());
    QVT_CHECK_OK(got.status());
    QVT_CHECK_OK(want.status());
    bool same = got->neighbors.size() == want->neighbors.size();
    for (size_t i = 0; same && i < got->neighbors.size(); ++i) {
      same = got->neighbors[i].id == want->neighbors[i].id &&
             got->neighbors[i].distance == want->neighbors[i].distance;
    }
    if (!same) ++equivalence_mismatches;
  }
  QVT_CHECK(equivalence_mismatches == 0)
      << equivalence_mismatches
      << " queries differ between the compacted dynamic index and the "
         "static build";
  std::printf("equivalence: compacted dynamic == static %s build on all "
              "%zu queries\n",
              options.method.c_str(), sweep_queries.num_queries());

  // --- The JSON document. -------------------------------------------------
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n";
  json << "  \"method\": \"" << options.method << "\",\n";
  json << "  \"descriptors\": " << n << ",\n";
  json << "  \"readers\": " << num_readers << ",\n";
  json << "  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n";
  json << "  \"ingest\": {\n";
  json << "    \"inserts\": " << ingest_stats.inserts << ",\n";
  json << "    \"deletes\": " << ingest_stats.deletes << ",\n";
  json << "    \"inserts_per_sec\": " << inserts_per_s << ",\n";
  json << "    \"flushes\": " << ingest_stats.flushes << ",\n";
  json << "    \"merges\": " << ingest_stats.merges << ",\n";
  json << "    \"rows_written\": " << rows_written << ",\n";
  json << "    \"write_amplification\": " << write_amp << ",\n";
  json << "    \"amortized_build_micros_per_insert\": " << amortized_us
       << "\n";
  json << "  },\n";
  json << "  \"mixed\": {\n";
  WritePercentiles(json, "    ", "steady", steady, true);
  WritePercentiles(json, "    ", "during_merge", during_merge, true);
  json << "    \"p99_ratio\": " << p99_ratio << ",\n";
  json << "    \"p99_bound\": 2.0,\n";
  json << "    \"p99_checked\": " << (p99_check_ran ? "true" : "false")
       << "\n";
  json << "  },\n";
  json << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json << "    {\"max_chunks\": " << p.max_chunks
         << ", \"recall\": " << p.recall
         << ", \"wall_p50_micros\": " << p.wall.p50
         << ", \"wall_p95_micros\": " << p.wall.p95
         << ", \"wall_p99_micros\": " << p.wall.p99 << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"equivalence\": {\"queries\": " << sweep_queries.num_queries()
       << ", \"identical\": true}\n";
  json << "}\n";
  json.close();
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) { return qvt::Main(argc, argv); }

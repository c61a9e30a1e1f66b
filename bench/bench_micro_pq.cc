// Microbench for the PQ compressed first pass: ADC table-build latency,
// per-backend code-scan throughput against the uncompressed 24-d chunk
// scan, the per-backend latency of the thresholded ADC first pass that
// "pq" search runs, and recall@10 of the "pq" method vs rerank depth.
//
// The throughput section runs at a scale where the raw float matrix
// (rows x 24 x 4 bytes) no longer fits in cache while the packed codes
// (rows x m bytes) still do — the regime the compressed tier is built
// for. Scan speed depends only on the shape (m, ksub, dim), not on the
// trained values, so that section uses synthetic codebooks and codes;
// the recall section trains real codebooks over a generated collection
// and drives the registered "pq" / "chunked" / "exact-scan" methods.
//
// The thresholded first pass ("adc search") is PqAdcFilterScan,
// PqMethod::Search's scan phase, timed per backend at pq's default filter
// depth (128) for queries near collection rows. Which rows it abandons
// depends on the trained values, so it runs over codes trained with pq's
// defaults on a generated collection (1,500 images, ~150k rows; 100 with
// --tiny). Its cost lies in the abandon checks and the filter inserts,
// which the plain scan above does not pay. The bench exits 1 when the
// filters it leaves (ids and distance bits) differ between backends.
//
// Acceptance (ISSUE 8): ADC scan >= 5x the uncompressed rows/s on the
// same backend, and recall@10 >= 0.95 of the chunked searcher at some
// rerank depth R in {0, 32, 128, 512}.
//
// Flags: --rows N (default 4,000,000), --images N (default 120),
// --queries N (default 50), --json PATH (default BENCH_pq.json),
// --tiny (200k rows, 40 images, 12 queries — CI smoke scale).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pq.h"
#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/pq_method.h"
#include "core/result_set.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "geometry/kernels.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table.h"

namespace qvt {
namespace {

constexpr size_t kM = 8;
constexpr size_t kKsub = 256;
constexpr size_t kSubDim = kDescriptorDim / kM;
constexpr size_t kK = 10;
const size_t kRerankDepths[] = {0, 32, 128, 512};

/// Queries of the thresholded first-pass timing, each with its own table.
constexpr size_t kSearchQueries = 64;

struct BackendScan {
  kernels::Backend backend = kernels::Backend::kScalar;
  double table_build_ns = 0;
  double adc_mrows_per_s = 0;
  double uncompressed_mrows_per_s = 0;
  double speedup = 0;
  double adc_search_us_per_query = 0;
};

/// Times one scan flavor, auto-scaling repetitions to ~0.2 s of work.
template <typename Fn>
double MeasureSeconds(Fn&& fn) {
  WallClock wall;
  fn();  // warm up caches and the backend dispatch
  int reps = 1;
  for (;;) {
    Stopwatch timer(&wall);
    for (int r = 0; r < reps; ++r) fn();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed >= 0.2 || reps >= 1 << 12) return elapsed / reps;
    reps *= 4;
  }
}

std::vector<BackendScan> RunScanSection(size_t rows) {
  Rng rng(17);
  std::vector<float> codebooks(kM * kKsub * kSubDim);
  for (auto& x : codebooks) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<float> base(rows * kDescriptorDim);
  for (auto& x : base) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<float> query(kDescriptorDim);
  for (auto& x : query) x = static_cast<float>(rng.UniformDouble(0, 100));
  std::vector<uint8_t> codes(rows * kM);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.Next() & 255);
  std::vector<double> table(kM * kKsub), out(rows);

  std::vector<BackendScan> results;
  for (const kernels::Backend b : kernels::SupportedBackends()) {
    kernels::SetBackendForTesting(b);
    BackendScan r;
    r.backend = b;
    r.table_build_ns =
        MeasureSeconds([&] {
          kernels::BuildAdcTable(codebooks.data(), kM, kKsub, kSubDim, query,
                                 table.data());
        }) *
        1e9;
    const double adc_seconds = MeasureSeconds([&] {
      kernels::AdcScan(codes.data(), rows, kM, kKsub, table.data(),
                       out.data());
    });
    const double raw_seconds = MeasureSeconds([&] {
      kernels::BatchSquaredDistance(base.data(), rows, kDescriptorDim, query,
                                    out.data());
    });
    r.adc_mrows_per_s = rows / adc_seconds / 1e6;
    r.uncompressed_mrows_per_s = rows / raw_seconds / 1e6;
    r.speedup = raw_seconds / adc_seconds;
    results.push_back(std::move(r));
  }
  kernels::ResetBackendForTesting();
  return results;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Times pq's thresholded first pass per backend and stores it in the
/// matching entry of `scans`: PqAdcFilterScan, PqMethod::Search's scan
/// phase, at pq's default filter depth over codes trained and encoded with
/// pq's defaults on a generated collection of `num_images` images, for
/// queries that are perturbed collection rows (the per-query table is
/// built outside the clock, as Search's plan phase builds it). Returns
/// false, after naming each one, when a backend's filter (ids and
/// distance bits) differs from scalar's.
bool RunAdcSearchSection(size_t num_images, std::vector<BackendScan>* scans) {
  GeneratorConfig config;
  config.num_images = num_images;
  config.num_modes = std::max<size_t>(
      1, num_images * config.descriptors_per_image / 1050);
  config.seed = 31;
  const Collection collection = GenerateCollection(config);
  const PqMethodConfig method;
  PqConfig pq;
  pq.m = kM;
  pq.ksub = kKsub;
  pq.max_iterations = method.max_iterations;
  pq.seed = method.seed;
  auto codebook = TrainPq(collection, pq);
  QVT_CHECK_OK(codebook.status());
  auto codes = PqEncode(collection, *codebook);
  QVT_CHECK_OK(codes.status());
  std::cout << "adc search: " << collection.size() << " trained code rows, "
            << kSearchQueries << " queries\n";
  const std::span<const DescriptorId> ids = collection.Ids();
  const size_t depth =
      std::min(std::max(method.rerank, kK), collection.size());

  Rng rng(103);
  std::vector<double> tables(kSearchQueries * kM * kKsub);
  for (size_t q = 0; q < kSearchQueries; ++q) {
    const auto row = collection.Vector(rng.Uniform(collection.size()));
    std::vector<float> query(row.begin(), row.end());
    for (float& v : query) {
      v += static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    }
    kernels::BuildAdcTable(codebook->centroids.data(), kM, kKsub, kSubDim,
                           query, &tables[q * kM * kKsub]);
  }

  bool filters_match = true;
  std::vector<std::vector<Neighbor>> scalar_filters;
  for (BackendScan& r : *scans) {
    kernels::SetBackendForTesting(r.backend);
    std::vector<KnnResultSet> filters(kSearchQueries, KnnResultSet(depth));
    const double seconds = MeasureSeconds([&] {
      for (size_t q = 0; q < kSearchQueries; ++q) {
        filters[q].Clear();
        PqAdcFilterScan(*codes, ids, kM, kKsub, &tables[q * kM * kKsub],
                        &filters[q]);
      }
    });
    r.adc_search_us_per_query = seconds / kSearchQueries * 1e6;
    for (size_t q = 0; q < kSearchQueries; ++q) {
      std::vector<Neighbor> filter = filters[q].Sorted();
      if (r.backend == kernels::Backend::kScalar) {
        scalar_filters.push_back(std::move(filter));
      } else if (!SameNeighbors(filter, scalar_filters[q])) {
        std::cerr << "error: " << kernels::BackendName(r.backend)
                  << " ADC filter of query " << q << " differs from scalar\n";
        filters_match = false;
      }
    }
  }
  kernels::ResetBackendForTesting();
  return filters_match;
}

struct RecallSection {
  size_t collection_rows = 0;
  size_t num_queries = 0;
  double chunked_recall = 0;
  std::map<size_t, double> pq_recall;  // rerank depth -> recall@10
};

double RecallOf(const SearchMethod& method,
                const std::vector<std::vector<float>>& queries,
                const std::vector<std::vector<DescriptorId>>& truth) {
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto result = method.Search(queries[q], kK);
    QVT_CHECK_OK(result.status()) << method.name();
    for (const Neighbor& n : result->neighbors) {
      if (std::find(truth[q].begin(), truth[q].end(), n.id) !=
          truth[q].end()) {
        ++hits;
      }
    }
    total += truth[q].size();
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

RecallSection RunRecallSection(size_t num_images, size_t num_queries) {
  GeneratorConfig config;
  config.num_images = num_images;
  config.descriptors_per_image = 20;
  config.num_modes = 6;
  config.seed = 23;
  const Collection collection = GenerateCollection(config);
  MemEnv env;
  SrTreeChunker chunker(80);
  auto chunking = chunker.FormChunks(collection);
  QVT_CHECK_OK(chunking.status());
  auto index = ChunkIndex::Build(collection, *chunking, &env,
                                 ChunkIndexPaths::ForBase("idx"));
  QVT_CHECK_OK(index.status());

  MethodContext context;
  context.collection = &collection;
  context.index = &*index;
  context.env = &env;

  Rng rng(101);
  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    const size_t pos = rng.Uniform(collection.size());
    std::vector<float> query(collection.Vector(pos).begin(),
                             collection.Vector(pos).end());
    for (float& v : query) {
      v += static_cast<float>(rng.UniformDouble(-0.5, 0.5));
    }
    queries.push_back(std::move(query));
  }

  auto make = [&](const std::string& name, std::string_view params) {
    auto method = MethodRegistry::Global().Create(name, context, params);
    QVT_CHECK_OK(method.status()) << name;
    QVT_CHECK_OK((*method)->Prepare()) << name;
    return std::move(*method);
  };

  std::vector<std::vector<DescriptorId>> truth;
  {
    auto exact = make("exact-scan", "");
    for (const auto& query : queries) {
      auto result = exact->Search(query, kK);
      QVT_CHECK_OK(result.status());
      std::vector<DescriptorId> ids;
      for (const Neighbor& n : result->neighbors) ids.push_back(n.id);
      truth.push_back(std::move(ids));
    }
  }

  RecallSection section;
  section.collection_rows = collection.size();
  section.num_queries = num_queries;
  section.chunked_recall = RecallOf(*make("chunked", ""), queries, truth);
  for (const size_t depth : kRerankDepths) {
    const std::string params = "rerank=" + std::to_string(depth);
    section.pq_recall[depth] = RecallOf(*make("pq", params), queries, truth);
  }
  return section;
}

int Run(int argc, char** argv) {
  size_t rows = 4000000, images = 120, queries = 50, search_images = 1500;
  std::string json_path = "BENCH_pq.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      rows = 200000;
      search_images = 100;
      images = 40;
      queries = 12;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc) {
      images = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  std::cout << "### PQ compressed first pass: ADC scan vs uncompressed scan\n"
            << "scan rows: " << rows << " (" << rows * kDescriptorDim * 4 / 1e6
            << " MB raw vs " << rows * kM / 1e6 << " MB codes); m=" << kM
            << " ksub=" << kKsub << "\n";

  std::vector<BackendScan> scans = RunScanSection(rows);
  const bool filters_match = RunAdcSearchSection(search_images, &scans);
  {
    TablePrinter table({"backend", "table build (ns)", "adc Mrows/s",
                        "uncompressed Mrows/s", "speedup",
                        "adc search (us/query)"});
    for (const BackendScan& s : scans) {
      char buffer[64];
      std::vector<std::string> row{kernels::BackendName(s.backend)};
      std::snprintf(buffer, sizeof(buffer), "%.0f", s.table_build_ns);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.1f", s.adc_mrows_per_s);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.1f",
                    s.uncompressed_mrows_per_s);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.2fx", s.speedup);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.1f",
                    s.adc_search_us_per_query);
      row.push_back(buffer);
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
  }

  std::cout << "\n### recall@" << kK << " vs rerank depth\n";
  const RecallSection recall = RunRecallSection(images, queries);
  {
    TablePrinter table({"method", "recall@10"});
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.4f", recall.chunked_recall);
    table.AddRow({"chunked", buffer});
    for (const auto& [depth, value] : recall.pq_recall) {
      std::snprintf(buffer, sizeof(buffer), "%.4f", value);
      table.AddRow({"pq rerank=" + std::to_string(depth), buffer});
    }
    table.Print(std::cout);
  }

  double min_speedup = scans.empty() ? 0 : scans.front().speedup;
  for (const BackendScan& s : scans) {
    min_speedup = std::min(min_speedup, s.speedup);
  }
  double best_ratio = 0;
  for (const auto& [depth, value] : recall.pq_recall) {
    if (recall.chunked_recall > 0) {
      best_ratio = std::max(best_ratio, value / recall.chunked_recall);
    }
  }
  std::printf(
      "\nacceptance: min ADC speedup %.2fx (>= 5x: %s), best recall ratio "
      "%.4f (>= 0.95: %s)\n",
      min_speedup, min_speedup >= 5.0 ? "PASS" : "FAIL", best_ratio,
      best_ratio >= 0.95 ? "PASS" : "FAIL");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  std::fprintf(json, "{\n  \"m\": %zu,\n  \"ksub\": %zu,\n  \"dim\": %zu,\n",
               kM, kKsub, kDescriptorDim);
  std::fprintf(json, "  \"scan\": {\n    \"rows\": %zu,\n", rows);
  std::fprintf(json, "    \"backends\": {\n");
  for (size_t i = 0; i < scans.size(); ++i) {
    const BackendScan& s = scans[i];
    std::fprintf(json,
                 "      \"%s\": {\"table_build_ns\": %.1f, "
                 "\"adc_mrows_per_s\": %.2f, \"uncompressed_mrows_per_s\": "
                 "%.2f, \"speedup\": %.3f, \"adc_search_us_per_query\": "
                 "%.2f}%s\n",
                 kernels::BackendName(s.backend), s.table_build_ns,
                 s.adc_mrows_per_s, s.uncompressed_mrows_per_s, s.speedup,
                 s.adc_search_us_per_query, i + 1 < scans.size() ? "," : "");
  }
  std::fprintf(json, "    }\n  },\n");
  std::fprintf(json,
               "  \"recall\": {\n    \"collection_rows\": %zu,\n"
               "    \"num_queries\": %zu,\n    \"k\": %zu,\n"
               "    \"chunked\": %.4f,\n    \"pq_rerank\": {",
               recall.collection_rows, recall.num_queries, kK,
               recall.chunked_recall);
  size_t emitted = 0;
  for (const auto& [depth, value] : recall.pq_recall) {
    std::fprintf(json, "%s\"%zu\": %.4f",
                 emitted++ == 0 ? "" : ", ", depth, value);
  }
  std::fprintf(json, "}\n  },\n");
  std::fprintf(json,
               "  \"acceptance\": {\"min_adc_speedup\": %.3f, "
               "\"adc_speedup_ge_5x\": %s, \"best_recall_ratio\": %.4f, "
               "\"recall_ratio_ge_0.95\": %s}\n}\n",
               min_speedup, min_speedup >= 5.0 ? "true" : "false", best_ratio,
               best_ratio >= 0.95 ? "true" : "false");
  std::fclose(json);
  std::cout << "wrote " << json_path << "\n";
  if (!filters_match) {
    std::cerr << "error: ADC filter contents differ between backends\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace qvt

int main(int argc, char** argv) { return qvt::Run(argc, argv); }

// The "pq" search method: compressed ADC first pass + exact rerank. Covers
// the determinism acceptance bars (bit-identical results across SIMD
// backends, build thread counts, and the file-based open), the rerank
// behaviors (chunk file, collection gather, ADC-only), recall against the
// exact scan, and the argument-validation surface.

#include "core/pq_method.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/pq.h"
#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "geometry/kernels.h"
#include "storage/pq_file.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace qvt {
namespace {

struct PqFixture {
  MemEnv env;
  Collection collection;
  std::optional<ChunkIndex> index;
  std::vector<std::vector<float>> queries;

  explicit PqFixture(uint64_t seed = 23, size_t num_images = 40) {
    GeneratorConfig config;
    config.num_images = num_images;
    config.descriptors_per_image = 20;
    config.num_modes = 6;
    config.seed = seed;
    collection = GenerateCollection(config);
    SrTreeChunker chunker(80);
    auto chunking = chunker.FormChunks(collection);
    QVT_CHECK(chunking.ok());
    auto built = ChunkIndex::Build(collection, *chunking, &env,
                                   ChunkIndexPaths::ForBase("idx"));
    QVT_CHECK(built.ok());
    index.emplace(std::move(built).value());

    Rng rng(101);
    for (size_t q = 0; q < 12; ++q) {
      const size_t pos = rng.Uniform(collection.size());
      std::vector<float> query(collection.Vector(pos).begin(),
                               collection.Vector(pos).end());
      for (float& v : query) {
        v += static_cast<float>(rng.UniformDouble(-0.5, 0.5));
      }
      queries.push_back(std::move(query));
    }
  }

  MethodContext Context(bool with_index = true) const {
    MethodContext context;
    context.collection = &collection;
    if (with_index) context.index = &*index;
    context.env = const_cast<MemEnv*>(&env);
    return context;
  }
};

std::unique_ptr<SearchMethod> MakePrepared(const MethodContext& context,
                                           std::string_view params = "") {
  auto method = MethodRegistry::Global().Create("pq", context, params);
  EXPECT_TRUE(method.ok()) << method.status().message();
  if (!method.ok()) return nullptr;
  const Status prepared = (*method)->Prepare();
  EXPECT_TRUE(prepared.ok()) << prepared.message();
  if (!prepared.ok()) return nullptr;
  return std::move(*method);
}

void ExpectBitIdentical(const std::vector<Neighbor>& a,
                        const std::vector<Neighbor>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)), 0)
        << label << " rank " << i;
  }
}

struct BackendGuard {
  ~BackendGuard() { kernels::ResetBackendForTesting(); }
};

struct BuildThreadsGuard {
  ~BuildThreadsGuard() { SetBuildThreads(0); }
};

std::vector<kernels::Backend> SupportedBackends() {
  std::vector<kernels::Backend> backends;
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2, kernels::Backend::kNeon}) {
    if (kernels::BackendSupported(b)) backends.push_back(b);
  }
  return backends;
}

TEST(PqMethodTest, BitIdenticalAcrossSimdBackends) {
  const PqFixture fx;
  BackendGuard guard;
  std::vector<std::vector<Neighbor>> reference;
  bool first = true;
  for (const kernels::Backend backend : SupportedBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    kernels::SetBackendForTesting(backend);
    auto method = MakePrepared(fx.Context());
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      auto result = method->Search(fx.queries[q], 10);
      ASSERT_TRUE(result.ok()) << result.status().message();
      if (first) {
        reference.push_back(result->neighbors);
      } else {
        ExpectBitIdentical(reference[q], result->neighbors,
                           kernels::BackendName(backend));
      }
    }
    first = false;
  }
}

TEST(PqMethodTest, BitIdenticalAcrossBuildThreadCounts) {
  const PqFixture fx;
  BuildThreadsGuard guard;
  std::vector<std::vector<Neighbor>> reference;
  bool first = true;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    SetBuildThreads(threads);
    auto method = MakePrepared(fx.Context());
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      auto result = method->Search(fx.queries[q], 10);
      ASSERT_TRUE(result.ok()) << result.status().message();
      if (first) {
        reference.push_back(result->neighbors);
      } else {
        ExpectBitIdentical(reference[q], result->neighbors, "threads");
      }
    }
    first = false;
  }
}

TEST(PqMethodTest, FileBackedMethodMatchesTrainedMethodBothOpenModes) {
  const PqFixture fx;
  // Train + encode out-of-band, write the QVTPQC01 file the method will
  // open, and pin the file-backed method to the trained-in-process one.
  PqConfig config;
  auto codebook = TrainPq(fx.collection, config);
  ASSERT_TRUE(codebook.ok()) << codebook.status().message();
  auto codes = PqEncode(fx.collection, *codebook);
  ASSERT_TRUE(codes.ok()) << codes.status().message();
  MemEnv* env = const_cast<MemEnv*>(&fx.env);
  ASSERT_TRUE(WritePqFile(env, "compressed.pqc", codebook->dim, codebook->m,
                          codebook->ksub, codebook->centroids, *codes,
                          fx.collection.Ids())
                  .ok());

  auto trained = MakePrepared(fx.Context());
  auto from_file = MakePrepared(fx.Context(), "file=compressed.pqc");
  ASSERT_NE(from_file, nullptr);
  for (const auto& query : fx.queries) {
    auto a = trained->Search(query, 10);
    auto b = from_file->Search(query, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectBitIdentical(a->neighbors, b->neighbors, "file-backed");
  }
}

TEST(PqMethodTest, RerankDepthsConvergeOnExactScan) {
  const PqFixture fx;
  auto exact = MethodRegistry::Global().Create("exact-scan", fx.Context());
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE((*exact)->Prepare().ok());

  double best_recall = 0.0;
  for (const char* params : {"rerank=0", "rerank=32", "rerank=512"}) {
    auto method = MakePrepared(fx.Context(), params);
    ASSERT_NE(method, nullptr) << params;
    size_t hits = 0;
    size_t total = 0;
    for (const auto& query : fx.queries) {
      auto truth = (*exact)->Search(query, 10);
      auto got = method->Search(query, 10);
      ASSERT_TRUE(truth.ok());
      ASSERT_TRUE(got.ok()) << params;
      for (const Neighbor& n : truth->neighbors) {
        ++total;
        for (const Neighbor& m : got->neighbors) {
          if (m.id == n.id) {
            ++hits;
            break;
          }
        }
      }
    }
    const double recall = static_cast<double>(hits) /
                          static_cast<double>(total);
    best_recall = std::max(best_recall, recall);
  }
  // With R = 512 on an 800-row collection the rerank covers well over the
  // candidate set the exact top-10 lives in.
  EXPECT_GE(best_recall, 0.95);
}

TEST(PqMethodTest, ChunkRerankAndCollectionRerankAgree) {
  const PqFixture fx;
  auto with_index = MakePrepared(fx.Context());
  auto without_index = MakePrepared(fx.Context(/*with_index=*/false));
  ASSERT_NE(without_index, nullptr);
  for (const auto& query : fx.queries) {
    auto a = with_index->Search(query, 10);
    auto b = without_index->Search(query, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // The chunk file stores the same float payload the collection holds, so
    // the two rerank sources must agree bitwise.
    ExpectBitIdentical(a->neighbors, b->neighbors, "rerank source");
    EXPECT_GT(a->telemetry.chunks_read, 0u);
    EXPECT_EQ(b->telemetry.chunks_read, 0u);
  }
}

TEST(PqMethodTest, TelemetryAccountsForCompressedScanAndRerank) {
  const PqFixture fx;
  auto method = MakePrepared(fx.Context(), "rerank=64");
  ASSERT_NE(method, nullptr);
  auto result = method->Search(fx.queries[0], 10);
  ASSERT_TRUE(result.ok());
  const QueryTelemetry& t = result->telemetry;
  EXPECT_EQ(t.index_entries_scanned, fx.collection.size());
  EXPECT_EQ(t.candidates_examined, 64u);
  EXPECT_GT(t.descriptors_scanned, 0u);
  EXPECT_LE(t.descriptors_scanned, 64u);
  EXPECT_GT(t.bytes_read, 0u);
  EXPECT_GT(t.probes, 0u);
  EXPECT_FALSE(t.exact);
  EXPECT_GE(t.wall_micros, t.plan.wall_micros + t.scan.wall_micros +
                               t.refine.wall_micros);
}

TEST(PqMethodTest, AdcOnlyModeReadsNothing) {
  const PqFixture fx;
  auto method = MakePrepared(fx.Context(), "rerank=0");
  ASSERT_NE(method, nullptr);
  auto result = method->Search(fx.queries[0], 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.chunks_read, 0u);
  EXPECT_EQ(result->telemetry.descriptors_scanned, 0u);
  // Bytes touched are exactly the candidate code rows (m bytes each).
  EXPECT_EQ(result->telemetry.bytes_read, 10u * 8u);
  ASSERT_EQ(result->neighbors.size(), 10u);
  for (size_t i = 1; i < result->neighbors.size(); ++i) {
    EXPECT_LE(result->neighbors[i - 1].distance,
              result->neighbors[i].distance);
  }
}

TEST(PqMethodTest, ResidentBytesCoverCodesAndRouting) {
  const PqFixture fx;
  auto method = MakePrepared(fx.Context());
  auto* pq = dynamic_cast<PqMethod*>(method.get());
  ASSERT_NE(pq, nullptr);
  // Codes alone are size() * m bytes; codebooks, ids, and routing come on
  // top.
  EXPECT_GE(pq->ResidentBytes(), fx.collection.size() * 8);
}

TEST(PqMethodTest, InvalidArgumentsRejected) {
  const PqFixture fx;
  const MethodRegistry& registry = MethodRegistry::Global();
  EXPECT_FALSE(registry.Create("pq", fx.Context(), "m=0").ok());
  EXPECT_FALSE(registry.Create("pq", fx.Context(), "ksub=0").ok());
  EXPECT_FALSE(registry.Create("pq", fx.Context(), "ksub=257").ok());
  EXPECT_FALSE(registry.Create("pq", fx.Context(), "bogus=1").ok());
  MethodContext empty;
  EXPECT_FALSE(registry.Create("pq", empty).ok());

  // m=5 does not divide 24: surfaces at Prepare (training time).
  auto bad_m = registry.Create("pq", fx.Context(), "m=5");
  ASSERT_TRUE(bad_m.ok());
  EXPECT_TRUE((*bad_m)->Prepare().IsInvalidArgument());

  // A CRC-valid file= artifact holding a code >= ksub fails at Prepare
  // (the open checks every code). In the last subspace such a code would
  // index past the m x ksub ADC table.
  {
    const size_t m = 8, ksub = 4, n = fx.collection.size();
    const std::vector<float> codebooks(m * ksub * (kDescriptorDim / m), 0.5f);
    const std::vector<uint8_t> codes(n * m, 1);
    MemEnv* env = const_cast<MemEnv*>(&fx.env);
    ASSERT_TRUE(WritePqFile(env, "bad.pqc", kDescriptorDim, m, ksub,
                            codebooks, codes, fx.collection.Ids())
                    .ok());
    auto view = OpenPqFile(env, "bad.pqc", kDescriptorDim);
    ASSERT_TRUE(view.ok());
    const PqFileHeader header = view->header();
    auto bytes = ReadFileBytes(env, "bad.pqc");
    ASSERT_TRUE(bytes.ok());
    (*bytes)[header.codes_off + 5 * m + (m - 1)] = 255;
    const uint32_t crc = Crc32(bytes->data(), header.footer_off);
    std::memcpy(bytes->data() + header.footer_off, &crc, sizeof(crc));
    ASSERT_TRUE(
        WriteFileBytes(env, "bad.pqc", bytes->data(), bytes->size()).ok());
    auto bad_file = registry.Create("pq", fx.Context(), "file=bad.pqc");
    ASSERT_TRUE(bad_file.ok());
    const Status prepared = (*bad_file)->Prepare();
    EXPECT_TRUE(prepared.IsCorruption()) << prepared.ToString();
    EXPECT_NE(prepared.ToString().find("out of range"), std::string::npos);
  }

  auto method = MakePrepared(fx.Context());
  EXPECT_TRUE(method->Search(fx.queries[0], 0).status().IsInvalidArgument());
  std::vector<float> short_query(5, 0.0f);
  EXPECT_TRUE(
      method->Search(short_query, 10).status().IsInvalidArgument());
  EXPECT_TRUE(method->Search(fx.queries[0], 10, StopRule::MaxChunks(2))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      method->SearchRange(fx.queries[0], 1.0, StopRule::Exact())
          .status()
          .IsUnimplemented());
}

}  // namespace
}  // namespace qvt

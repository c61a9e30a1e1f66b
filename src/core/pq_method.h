#ifndef QVT_CORE_PQ_METHOD_H_
#define QVT_CORE_PQ_METHOD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/pq.h"
#include "core/search_method.h"
#include "storage/pq_file.h"

namespace qvt {

/// Parameters of the "pq" method (registry keys in parentheses).
struct PqMethodConfig {
  /// Subspace count (m); must divide the descriptor dimension.
  size_t m = 8;
  /// Codebook entries per subspace (ksub), in [1, 256].
  size_t ksub = 256;
  /// Exact-rerank depth R (rerank): the ADC first pass keeps the best
  /// max(R, k) rows, and the rerank pass recomputes exact distances for
  /// them — from the chunk file when a chunk index is in the context, else
  /// from the in-memory collection. 0 trusts the ADC estimates outright
  /// (neighbors carry sqrt(ADC) distances).
  size_t rerank = 128;
  /// k-means iterations when training at Prepare (iters).
  size_t max_iterations = 25;
  uint64_t seed = 7;
  /// Optional QVTPQC01 file (file=path): Prepare maps codebooks + codes
  /// from it (OpenPqFile, which checks every code) instead of training.
  /// Requires MethodContext::env.
  std::string file;
};

/// The compressed in-memory first pass: descriptors live in RAM as m-byte
/// product-quantization codes, a query scans them with the SIMD ADC
/// kernels, and only the top-R survivors are reranked against their exact
/// stored vectors — read from the chunk file (FetchChunk), in ADC-score
/// order. The trade-off axis the paper varies is bytes touched
/// per descriptor; this method moves the first pass from 4 * dim bytes
/// (chunk scan) to m bytes and pays reads only for R candidates.
///
/// Determinism: training, encoding, the ADC scan, and the rerank are all
/// bit-identical across SIMD backends, build thread counts, and trained vs
/// file-backed codes (kernel contract + shard-order parallel reductions +
/// the (distance, id) result-set tie-break).
class PqMethod final : public SearchMethod {
 public:
  PqMethod(const MethodContext& context, PqMethodConfig config);

  std::string_view name() const override { return "pq"; }
  std::string Describe() const override;
  MethodCapabilities capabilities() const override {
    return {/*exact=*/false, /*range_search=*/false, /*stop_rules=*/false,
            /*disk_model=*/false};
  }

  Status Prepare() override;

  StatusOr<MethodResult> Search(std::span<const float> query, size_t k,
                                const StopRule& stop) const override;

  bool SupportsSharedScan() const override { return true; }

  /// Chunk-major batched execution: one fused pass over the packed codes
  /// drives every query's ADC filter (the MultiQueryAdcScanAbandon kernel,
  /// per-query thresholds), and the rerank fetches the union of the
  /// queries' candidate chunks once each. Per-query neighbors and counters
  /// are bit-identical to Search() per query; `stats` accumulates the
  /// batch's coalescing ledger.
  StatusOr<std::vector<MethodResult>> SearchShared(
      std::span<const std::span<const float>> queries, size_t k,
      const StopRule& stop, size_t num_threads,
      SharedScanStats* stats) const override;

  /// Bytes of RAM the prepared first pass holds resident (codebooks +
  /// packed codes + id sidecar + rerank routing table). For `qvt_tool
  /// info`'s footprint report.
  size_t ResidentBytes() const override;

 private:
  Status PrepareCompressed();
  Status PrepareRerankRouting();

  /// Exact rerank of `candidates` (ascending-ADC (row, adc_sq) pairs) via
  /// chunk-file reads in score order.
  Status RerankFromChunks(std::span<const float> query,
                          std::span<const Neighbor> candidates,
                          KnnResultSet* result_set,
                          QueryTelemetry* telemetry) const;

  /// Exact rerank via gathered in-memory rows.
  Status RerankFromCollection(std::span<const float> query,
                              std::span<const Neighbor> candidates,
                              KnnResultSet* result_set,
                              QueryTelemetry* telemetry) const;

  const Collection* collection_;
  const ChunkIndex* index_;
  ChunkCache* cache_;
  Env* env_;
  PqMethodConfig config_;

  // --- prepared state -------------------------------------------------------
  bool prepared_ = false;
  /// Engaged when codes came from a QVTPQC01 file (owns the mapping the
  /// spans below point into).
  std::optional<PqFileView> file_view_;
  /// Owned storage when trained at Prepare.
  PqCodebook trained_codebook_;
  std::vector<uint8_t> trained_codes_;
  /// Unified views over either source.
  std::span<const float> codebooks_;
  std::span<const uint8_t> codes_;
  std::span<const uint32_t> ids_;
  size_t dim_ = 0;
  size_t sub_dim_ = 0;
  size_t num_rows_ = 0;
  /// id -> chunk routing for the chunk-file rerank (sorted by id), built by
  /// streaming the chunk file once at Prepare. Empty when no index.
  std::vector<std::pair<uint32_t, uint32_t>> id_to_chunk_;
  /// id -> collection position for the gather rerank when codes came from a
  /// file (identity otherwise). Sorted by id.
  std::vector<std::pair<uint32_t, uint32_t>> id_to_position_;
};

/// Registers the "pq" method into `registry` (called by the global
/// registry builder).
void RegisterPqMethod(MethodRegistry& registry);

}  // namespace qvt

#endif  // QVT_CORE_PQ_METHOD_H_

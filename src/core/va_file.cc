#include "core/va_file.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/search_method.h"
#include "geometry/vec.h"
#include "util/clock.h"
#include "util/logging.h"

namespace qvt {

VaFile VaFile::Build(const Collection* collection,
                     const VaFileConfig& config) {
  QVT_CHECK(collection != nullptr);
  QVT_CHECK(config.bits_per_dim >= 1 && config.bits_per_dim <= 8);

  VaFile va(collection, config);
  const size_t dim = collection->dim();
  const size_t n = collection->size();
  va.cells_ = static_cast<size_t>(1) << config.bits_per_dim;

  // Equi-width grid per dimension over [min, max], with the last boundary
  // nudged up so max falls into the top cell.
  va.boundaries_.resize(dim * (va.cells_ + 1));
  for (size_t d = 0; d < dim; ++d) {
    float lo = std::numeric_limits<float>::max();
    float hi = std::numeric_limits<float>::lowest();
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, collection->Vector(i)[d]);
      hi = std::max(hi, collection->Vector(i)[d]);
    }
    if (n == 0) lo = hi = 0.0f;
    if (hi <= lo) hi = lo + 1.0f;
    const double width = (static_cast<double>(hi) - lo) /
                         static_cast<double>(va.cells_);
    for (size_t c = 0; c <= va.cells_; ++c) {
      va.boundaries_[d * (va.cells_ + 1) + c] =
          static_cast<float>(lo + width * static_cast<double>(c));
    }
    va.boundaries_[d * (va.cells_ + 1) + va.cells_] =
        std::nextafter(hi, std::numeric_limits<float>::max());
  }

  va.codes_.resize(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const auto v = collection->Vector(i);
    for (size_t d = 0; d < dim; ++d) {
      const float* bounds = va.boundaries_.data() + d * (va.cells_ + 1);
      // Cell c covers [bounds[c], bounds[c+1]).
      const float* it =
          std::upper_bound(bounds, bounds + va.cells_ + 1, v[d]);
      size_t cell = it == bounds ? 0 : static_cast<size_t>(it - bounds) - 1;
      if (cell >= va.cells_) cell = va.cells_ - 1;
      va.codes_[i * dim + d] = static_cast<uint8_t>(cell);
    }
  }
  return va;
}

void VaFile::QueryBounds(std::span<const float> query,
                         std::vector<double>* lower_sq,
                         std::vector<double>* upper_sq) const {
  const size_t dim = collection_->dim();
  lower_sq->assign(dim * cells_, 0.0);
  upper_sq->assign(dim * cells_, 0.0);
  for (size_t d = 0; d < dim; ++d) {
    const float* bounds = boundaries_.data() + d * (cells_ + 1);
    const double q = query[d];
    for (size_t c = 0; c < cells_; ++c) {
      const double lo = bounds[c];
      const double hi = bounds[c + 1];
      double lower = 0.0;
      if (q < lo) {
        lower = lo - q;
      } else if (q > hi) {
        lower = q - hi;
      }
      const double upper = std::max(std::abs(q - lo), std::abs(q - hi));
      (*lower_sq)[d * cells_ + c] = lower * lower;
      (*upper_sq)[d * cells_ + c] = upper * upper;
    }
  }
}

StatusOr<std::vector<Neighbor>> VaFile::Search(
    std::span<const float> query, size_t k, QueryTelemetry* telemetry,
    std::span<const DescriptorId> excluded) const {
  return SearchInternal(query, k, std::numeric_limits<size_t>::max(),
                        telemetry, excluded);
}

StatusOr<std::vector<Neighbor>> VaFile::SearchApproximate(
    std::span<const float> query, size_t k, size_t max_refinements,
    QueryTelemetry* telemetry, std::span<const DescriptorId> excluded) const {
  return SearchInternal(query, k, max_refinements, telemetry, excluded);
}

StatusOr<std::vector<Neighbor>> VaFile::SearchInternal(
    std::span<const float> query, size_t k, size_t max_refinements,
    QueryTelemetry* telemetry, std::span<const DescriptorId> excluded) const {
  const size_t dim = collection_->dim();
  const size_t n = collection_->size();
  QVT_RETURN_IF_ERROR(ValidateQuery(query, dim));
  if (k == 0) return Status::InvalidArgument("k must be positive");

  WallClock wall;
  Stopwatch stopwatch(&wall);
  QueryTelemetry telem;

  // Plan stage: per-dimension cell bound tables for this query.
  std::vector<double> lower_sq, upper_sq;
  QueryBounds(query, &lower_sq, &upper_sq);
  telem.plan.wall_micros = stopwatch.ElapsedMicros();

  // Phase 1: scan all approximations; track the k smallest upper bounds and
  // keep every vector whose lower bound beats the running k-th upper bound.
  // Excluded rows are refused at that point, so they never bound the live
  // rows and never reach phase 2.
  struct Candidate {
    double lower_bound_sq;
    uint32_t position;
  };
  std::vector<Candidate> candidates;
  // Max-heap of the k best upper bounds seen so far.
  std::priority_queue<double> upper_heap;

  for (size_t i = 0; i < n; ++i) {
    const uint8_t* code = codes_.data() + i * dim;
    double lb = 0.0, ub = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      lb += lower_sq[d * cells_ + code[d]];
      ub += upper_sq[d * cells_ + code[d]];
    }
    ++telem.index_entries_scanned;
    const double kth_ub = upper_heap.size() == k
                              ? upper_heap.top()
                              : std::numeric_limits<double>::infinity();
    if (lb <= kth_ub) {
      if (IsExcluded(excluded, collection_->Id(i))) {
        ++telem.tombstones_filtered;
        continue;
      }
      candidates.push_back({lb, static_cast<uint32_t>(i)});
      if (upper_heap.size() < k) {
        upper_heap.push(ub);
      } else if (ub < upper_heap.top()) {
        upper_heap.pop();
        upper_heap.push(ub);
      }
    }
  }

  telem.scan.wall_micros = stopwatch.ElapsedMicros() - telem.plan.wall_micros;

  // Phase 2: refine in ascending lower-bound order; stop when the next
  // lower bound exceeds the current k-th exact distance (or the refinement
  // budget runs out — the approximate variant).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.lower_bound_sq != b.lower_bound_sq) {
                return a.lower_bound_sq < b.lower_bound_sq;
              }
              return a.position < b.position;
            });
  telem.candidates_examined = candidates.size();

  KnnResultSet result(k);
  bool interrupted = false;
  for (const Candidate& candidate : candidates) {
    if (telem.descriptors_scanned >= max_refinements) {
      interrupted = true;
      break;
    }
    const double kth = result.KthDistance();
    if (result.full() && candidate.lower_bound_sq > kth * kth) break;
    ++telem.descriptors_scanned;
    result.Insert(collection_->Id(candidate.position),
                  vec::Distance(collection_->Vector(candidate.position),
                                query));
  }
  telem.wall_micros = stopwatch.ElapsedMicros();
  telem.refine.wall_micros =
      telem.wall_micros - telem.plan.wall_micros - telem.scan.wall_micros;
  // Phase 1 touches every approximation code; phase 2 fetches full records.
  telem.bytes_read =
      n * dim + telem.descriptors_scanned * DescriptorRecordBytes(dim);
  // Refinement interrupted by the budget forfeits the exactness proof.
  telem.exact = !interrupted;
  if (telemetry != nullptr) *telemetry = telem;
  return result.Sorted();
}

}  // namespace qvt

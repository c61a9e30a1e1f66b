#include "core/medrank.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/search_method.h"
#include "geometry/vec.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"

namespace qvt {

MedrankIndex MedrankIndex::Build(const Collection* collection,
                                 const MedrankConfig& config) {
  QVT_CHECK(collection != nullptr);
  QVT_CHECK(config.num_lines >= 1);
  QVT_CHECK(config.min_frequency > 0.0 && config.min_frequency <= 1.0);

  MedrankIndex index(collection, config);
  const size_t dim = collection->dim();
  const size_t n = collection->size();
  Rng rng(config.seed);

  index.directions_.resize(config.num_lines * dim);
  index.sorted_positions_.resize(config.num_lines);
  index.sorted_values_.resize(config.num_lines);

  std::vector<float> projections(n);
  for (size_t line = 0; line < config.num_lines; ++line) {
    // Random unit direction (Gaussian components, normalized).
    std::span<float> dir(index.directions_.data() + line * dim, dim);
    double norm_sq = 0.0;
    for (auto& x : dir) {
      x = static_cast<float>(rng.NextGaussian());
      norm_sq += static_cast<double>(x) * x;
    }
    const double inv = 1.0 / std::max(1e-12, std::sqrt(norm_sq));
    for (auto& x : dir) x = static_cast<float>(x * inv);

    for (size_t i = 0; i < n; ++i) {
      const auto v = collection->Vector(i);
      double dot = 0.0;
      for (size_t d = 0; d < dim; ++d) dot += static_cast<double>(v[d]) * dir[d];
      projections[i] = static_cast<float>(dot);
    }
    std::vector<uint32_t>& order = index.sorted_positions_[line];
    order.resize(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (projections[a] != projections[b]) {
        return projections[a] < projections[b];
      }
      return a < b;
    });
    std::vector<float>& values = index.sorted_values_[line];
    values.resize(n);
    for (size_t i = 0; i < n; ++i) values[i] = projections[order[i]];
  }
  return index;
}

StatusOr<std::vector<Neighbor>> MedrankIndex::Search(
    std::span<const float> query, size_t k, QueryTelemetry* telemetry,
    std::span<const DescriptorId> excluded) const {
  const size_t dim = collection_->dim();
  const size_t n = collection_->size();
  QVT_RETURN_IF_ERROR(ValidateQuery(query, dim));
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k out of range");
  }

  WallClock wall;
  Stopwatch stopwatch(&wall);
  QueryTelemetry telem;

  const size_t m = config_.num_lines;
  const size_t needed = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(config_.min_frequency *
                                       static_cast<double>(m))));

  // Per line: the query's projection and two cursors walking outward.
  struct LineWalk {
    float query_projection = 0.0f;
    // Index of the next unvisited element below / at-or-above the query.
    ptrdiff_t down = -1;
    size_t up = 0;
  };
  std::vector<LineWalk> walks(m);
  for (size_t line = 0; line < m; ++line) {
    std::span<const float> dir(directions_.data() + line * dim, dim);
    double dot = 0.0;
    for (size_t d = 0; d < dim; ++d) dot += static_cast<double>(query[d]) * dir[d];
    walks[line].query_projection = static_cast<float>(dot);
    const auto& values = sorted_values_[line];
    const auto it = std::lower_bound(values.begin(), values.end(),
                                     walks[line].query_projection);
    walks[line].up = static_cast<size_t>(it - values.begin());
    walks[line].down = static_cast<ptrdiff_t>(walks[line].up) - 1;
  }
  telem.probes = m;
  telem.plan.wall_micros = stopwatch.ElapsedMicros();

  // Global lock-step walk: always advance the cursor whose next element is
  // projection-closest to the query (sorted access).
  struct Cursor {
    double gap;
    uint32_t line;
    bool upward;
    // Equal gaps (exact projection ties) resolve by (line, direction) so the
    // emission order is a deterministic function of the index, not of
    // priority-queue internals.
    bool operator>(const Cursor& other) const {
      if (gap != other.gap) return gap > other.gap;
      if (line != other.line) return line > other.line;
      return upward && !other.upward;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<>> frontier;
  auto push_cursor = [&](uint32_t line, bool upward) {
    const LineWalk& w = walks[line];
    const auto& values = sorted_values_[line];
    if (upward) {
      if (w.up < n) {
        frontier.push({std::abs(values[w.up] - w.query_projection), line,
                       true});
      }
    } else if (w.down >= 0) {
      frontier.push({std::abs(values[w.down] - w.query_projection), line,
                     false});
    }
  };
  for (uint32_t line = 0; line < m; ++line) {
    push_cursor(line, true);
    push_cursor(line, false);
  }

  std::vector<uint8_t> seen_count(n, 0);
  std::vector<Neighbor> result;
  result.reserve(k);

  while (result.size() < k && !frontier.empty()) {
    const Cursor cursor = frontier.top();
    frontier.pop();
    LineWalk& w = walks[cursor.line];
    uint32_t position;
    if (cursor.upward) {
      position = sorted_positions_[cursor.line][w.up];
      ++w.up;
    } else {
      position = sorted_positions_[cursor.line][w.down];
      --w.down;
    }
    push_cursor(cursor.line, cursor.upward);
    ++telem.index_entries_scanned;

    if (++seen_count[position] == needed) {
      if (IsExcluded(excluded, collection_->Id(position))) {
        ++telem.tombstones_filtered;
        continue;
      }
      ++telem.candidates_examined;
      ++telem.descriptors_scanned;
      result.push_back(
          {collection_->Id(position),
           vec::Distance(collection_->Vector(position), query)});
    }
  }
  telem.wall_micros = stopwatch.ElapsedMicros();
  telem.scan.wall_micros = telem.wall_micros - telem.plan.wall_micros;
  telem.bytes_read =
      telem.descriptors_scanned * DescriptorRecordBytes(dim);
  if (telemetry != nullptr) *telemetry = telem;
  return result;
}

}  // namespace qvt

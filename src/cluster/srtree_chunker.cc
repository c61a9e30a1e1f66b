#include "cluster/srtree_chunker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/build_stats.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace qvt {

// The SR-tree's static bulk build (Katayama & Satoh; §2 of the paper) is a
// recursive max-variance median partition: a node holding n points and
// L = ceil(n / leaf_capacity) leaves spreads them over min(fanout, L) child
// groups by repeated halving of the group range, each halving an
// nth_element on the range's maximum-variance dimension. A child group is
// partitioned the same way until it fits one leaf. The paper uses only the
// leaves (one leaf = one chunk), so no node is ever materialized: the
// partition reorders a position array in place and records each leaf as a
// [begin, end) range of it.
//
// The frontier of pending slices advances level-synchronously and the
// slices of one level cover disjoint ranges, so they fan out across
// threads. Each split's inputs (range, group plan) and its comparator are
// functions of the data alone, so the chunks are identical at any thread
// count.

namespace {

/// Maximum children per internal node of the (implicit) tree.
constexpr size_t kInternalFanout = 16;

/// Fixed shard width for the per-range variance scans (a constant of the
/// algorithm; see util/parallel_for.h for the determinism contract).
constexpr size_t kVarianceGrain = 8192;

/// How a node divides its leaves among child groups: `num_leaves` leaves
/// spread over `num_groups` groups, the first num_leaves % num_groups
/// groups getting one extra.
struct GroupPlan {
  size_t num_leaves = 0;
  size_t num_groups = 0;

  /// Plan of a node holding `count` points, or num_leaves <= 1 for a leaf.
  static GroupPlan For(size_t count, size_t leaf_capacity) {
    const size_t num_leaves = (count + leaf_capacity - 1) / leaf_capacity;
    return {num_leaves, std::min(kInternalFanout, num_leaves)};
  }

  /// Total leaves of groups [lo, hi).
  size_t LeavesIn(size_t lo, size_t hi) const {
    const size_t base = num_leaves / num_groups;
    const size_t rem = num_leaves % num_groups;
    return (hi - lo) * base + (std::min(hi, rem) - std::min(lo, rem));
  }
};

/// Remainder-aware proportional allocation: base points per leaf plus one
/// extra for the leftmost `slice_count % leaves_total` leaves. The
/// invariant is preserved recursively, so every leaf ends up with either
/// floor(n/leaves) or ceil(n/leaves) points of its parent — the paper's
/// "guaranteed uniform leaf size".
size_t LeftSliceCount(size_t slice_count, size_t leaves_left,
                      size_t leaves_total) {
  const size_t base = slice_count / leaves_total;
  const size_t remainder = slice_count % leaves_total;
  return leaves_left * base + std::min(remainder, leaves_left);
}

/// Dimension of maximum variance of the points at `positions[begin, end)`.
/// Sharded moment scan with a fixed-order merge, deterministic at any
/// thread count.
size_t MaxVarianceDim(const Collection& collection,
                      const std::vector<size_t>& positions, size_t begin,
                      size_t end) {
  const size_t dim = collection.dim();
  struct Moments {
    std::vector<double> sum, sum_sq;
  };
  Moments total = ParallelReduce(
      end - begin, kVarianceGrain,
      Moments{std::vector<double>(dim, 0.0), std::vector<double>(dim, 0.0)},
      [&](size_t shard_begin, size_t shard_end) {
        Moments m{std::vector<double>(dim, 0.0),
                  std::vector<double>(dim, 0.0)};
        for (size_t i = begin + shard_begin; i < begin + shard_end; ++i) {
          const auto v = collection.Vector(positions[i]);
          for (size_t d = 0; d < dim; ++d) {
            m.sum[d] += v[d];
            m.sum_sq[d] += static_cast<double>(v[d]) * v[d];
          }
        }
        return m;
      },
      [](Moments acc, const Moments& m) {
        for (size_t d = 0; d < acc.sum.size(); ++d) {
          acc.sum[d] += m.sum[d];
          acc.sum_sq[d] += m.sum_sq[d];
        }
        return acc;
      });
  const double n = static_cast<double>(end - begin);
  size_t best_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    const double var =
        total.sum_sq[d] / n - (total.sum[d] / n) * (total.sum[d] / n);
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  return best_dim;
}

using LeafRange = std::pair<size_t, size_t>;

/// Reorders `positions` by the partition and returns every leaf's
/// [begin, end) range of it, in left-to-right (ascending begin) order.
std::vector<LeafRange> PartitionPositions(const Collection& collection,
                                          size_t leaf_capacity,
                                          std::vector<size_t>& positions) {
  struct Slice {
    size_t begin, end;          // position range
    size_t group_lo, group_hi;  // group index range within `plan`
    GroupPlan plan;             // owning node's leaf/group layout
  };
  struct Step {
    std::vector<Slice> slices;  // unfinished halves, in order
    LeafRange leaf{0, 0};       // set when the slice was a finished leaf
  };

  const GroupPlan root_plan = GroupPlan::For(positions.size(), leaf_capacity);
  if (root_plan.num_leaves <= 1) return {{0, positions.size()}};

  std::vector<LeafRange> leaves;
  std::vector<Slice> frontier{
      {0, positions.size(), 0, root_plan.num_groups, root_plan}};
  while (!frontier.empty()) {
    std::vector<Step> steps(frontier.size());
    ParallelFor(frontier.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t si = lo; si < hi; ++si) {
        const Slice& s = frontier[si];
        Step& out = steps[si];
        if (s.group_hi - s.group_lo == 1) {
          // A finished group range is a child node: a leaf if it fits one,
          // otherwise it seeds its own slicing.
          const GroupPlan child =
              GroupPlan::For(s.end - s.begin, leaf_capacity);
          if (child.num_leaves <= 1) {
            out.leaf = {s.begin, s.end};
          } else {
            out.slices.push_back({s.begin, s.end, 0, child.num_groups, child});
          }
          continue;
        }
        const size_t group_mid = (s.group_lo + s.group_hi) / 2;
        const size_t left_count = LeftSliceCount(
            s.end - s.begin, s.plan.LeavesIn(s.group_lo, group_mid),
            s.plan.LeavesIn(s.group_lo, s.group_hi));
        const size_t split_dim =
            MaxVarianceDim(collection, positions, s.begin, s.end);
        std::nth_element(positions.begin() + s.begin,
                         positions.begin() + s.begin + left_count,
                         positions.begin() + s.end, [&](size_t a, size_t b) {
                           return collection.Vector(a)[split_dim] <
                                  collection.Vector(b)[split_dim];
                         });
        out.slices.push_back(
            {s.begin, s.begin + left_count, s.group_lo, group_mid, s.plan});
        out.slices.push_back(
            {s.begin + left_count, s.end, group_mid, s.group_hi, s.plan});
      }
    });
    frontier.clear();
    for (const Step& step : steps) {
      if (step.leaf.second > step.leaf.first) leaves.push_back(step.leaf);
      frontier.insert(frontier.end(), step.slices.begin(), step.slices.end());
    }
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

}  // namespace

SrTreeChunker::SrTreeChunker(size_t leaf_capacity)
    : leaf_capacity_(leaf_capacity) {
  QVT_CHECK(leaf_capacity >= 2);
}

StatusOr<ChunkingResult> SrTreeChunker::FormChunks(
    const Collection& collection) {
  if (collection.empty()) {
    return Status::InvalidArgument("cannot chunk an empty collection");
  }
  std::vector<size_t> positions(collection.size());
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  std::vector<LeafRange> leaves;
  {
    BuildPhaseTimer timer("srtree.partition");
    leaves = PartitionPositions(collection, leaf_capacity_, positions);
  }

  ChunkingResult result;
  result.chunks.reserve(leaves.size());
  for (const auto& [begin, end] : leaves) {
    result.chunks.emplace_back(positions.begin() + begin,
                               positions.begin() + end);
  }
  return result;
}

}  // namespace qvt

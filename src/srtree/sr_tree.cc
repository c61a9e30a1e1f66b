#include "srtree/sr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "geometry/vec.h"
#include "srtree/static_sr_tree.h"
#include "storage/format.h"
#include "util/build_stats.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace qvt {

SrTree::SrTree(const Collection* collection, const SrTreeConfig& config)
    : collection_(collection), config_(config) {
  QVT_CHECK(collection != nullptr);
  QVT_CHECK(config.leaf_capacity >= 2);
  QVT_CHECK(config.internal_fanout >= 2);
  QVT_CHECK(config.min_fill > 0.0 && config.min_fill <= 0.5);
}

SrTree::Entry SrTree::MakeLeafEntry(size_t pos) const {
  Entry entry;
  const auto point = Point(pos);
  entry.centroid.assign(point.begin(), point.end());
  entry.radius = 0.0;
  entry.rect = Rect(point);
  entry.count = 1;
  entry.position = pos;
  return entry;
}

SrTree::Entry SrTree::SummarizeNode(uint32_t node_id) const {
  const Node& node = nodes_[node_id];
  QVT_CHECK(!node.entries.empty());

  Entry summary;
  summary.child = node_id;
  const size_t dim = collection_->dim();

  // Weighted centroid of all points below (exact by induction: leaf-entry
  // centroids are the points themselves; internal-entry centroids are exact
  // weighted centroids of their subtrees).
  std::vector<double> acc(dim, 0.0);
  size_t total = 0;
  for (const Entry& e : node.entries) {
    for (size_t d = 0; d < dim; ++d) {
      acc[d] += static_cast<double>(e.centroid[d]) *
                static_cast<double>(e.count);
    }
    total += e.count;
  }
  summary.centroid.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    summary.centroid[d] = static_cast<float>(acc[d] /
                                             static_cast<double>(total));
  }
  summary.count = total;

  // Covering sphere: for each child entry, the farthest a point below it can
  // be from our centroid is dist(centroid, child centroid) + child radius.
  double radius = 0.0;
  for (const Entry& e : node.entries) {
    const double d = vec::Distance(summary.centroid, e.centroid) + e.radius;
    radius = std::max(radius, d);
  }
  summary.radius = radius;

  // Exact minimum bounding rectangle.
  for (const Entry& e : node.entries) summary.rect.ExtendToCover(e.rect);
  return summary;
}

uint32_t SrTree::NewNode(bool is_leaf) {
  nodes_.emplace_back();
  nodes_.back().is_leaf = is_leaf;
  return static_cast<uint32_t>(nodes_.size() - 1);
}

// ---------------------------------------------------------------------------
// Static bulk build
// ---------------------------------------------------------------------------
//
// The build is a three-phase deterministic parallel pipeline. Every phase
// either operates on disjoint position ranges (phase 1), is serial and
// data-free (phase 2), or fills disjoint nodes whose inputs are final
// (phase 3), so the finished tree — node ids, entry order, every float — is
// bit-identical at any thread count, and identical to a run on one thread.

namespace {

/// Fixed shard width for the per-range variance scans (a constant of the
/// algorithm; see util/parallel_for.h for the determinism contract).
constexpr size_t kVarianceGrain = 8192;

/// How a node divides its leaves among child groups: `num_leaves` leaves
/// spread over `num_groups` groups, the first num_leaves % num_groups
/// groups getting one extra. Shared by the partitioning and skeleton phases
/// so their slicing arithmetic cannot diverge.
struct GroupPlan {
  size_t num_leaves = 0;
  size_t num_groups = 0;

  /// Total leaves of groups [lo, hi).
  size_t LeavesIn(size_t lo, size_t hi) const {
    const size_t base = num_leaves / num_groups;
    const size_t rem = num_leaves % num_groups;
    return (hi - lo) * base + (std::min(hi, rem) - std::min(lo, rem));
  }
};

/// Remainder-aware proportional allocation: base points per leaf plus one
/// extra for the leftmost `slice_count % leaves_total` leaves. The
/// invariant is preserved recursively, so every leaf in the tree ends up
/// with either floor(n/leaves) or ceil(n/leaves) points — the paper's
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

}  // namespace

void SrTree::BuildStatic() {
  std::vector<size_t> positions(collection_->size());
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  BuildStatic(positions);
}

void SrTree::BuildStatic(std::span<const size_t> positions) {
  nodes_.clear();
  root_ = kNoNode;
  num_points_ = positions.size();
  if (positions.empty()) return;

  std::vector<size_t> work(positions.begin(), positions.end());
  {
    BuildPhaseTimer timer("srtree.partition");
    PartitionPositions(work);
  }
  std::vector<std::pair<size_t, size_t>> leaf_ranges;
  std::vector<size_t> node_depths;
  root_ = BuildSkeleton(0, work.size(), 0, &leaf_ranges, &node_depths);
  nodes_[root_].parent = kNoNode;
  {
    BuildPhaseTimer timer("srtree.entries");
    FillEntries(work, leaf_ranges, node_depths);
  }
}

/// Phase 1: reorder `positions` exactly as the recursive build would.
/// The slicing work of a level consists of independent nth_element +
/// variance scans on **disjoint** ranges, so slices fan out across threads;
/// the frontier advances level-synchronously. Which thread runs a slice
/// cannot affect the outcome: each split's inputs (range, group plan) and
/// its comparator are functions of the data alone.
void SrTree::PartitionPositions(std::vector<size_t>& positions) const {
  struct Slice {
    size_t begin, end;          // position range
    size_t group_lo, group_hi;  // group index range within `plan`
    GroupPlan plan;             // owning node's leaf/group layout
  };

  const size_t count = positions.size();
  const size_t num_leaves =
      (count + config_.leaf_capacity - 1) / config_.leaf_capacity;
  if (num_leaves <= 1) return;

  GroupPlan root_plan{num_leaves,
                      std::min(config_.internal_fanout, num_leaves)};
  std::vector<Slice> frontier{{0, count, 0, root_plan.num_groups, root_plan}};

  while (!frontier.empty()) {
    std::vector<std::vector<Slice>> next(frontier.size());
    ParallelFor(frontier.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t si = lo; si < hi; ++si) {
        const Slice& s = frontier[si];
        std::vector<Slice>& out = next[si];
        if (s.group_hi - s.group_lo == 1) {
          // A finished group range is a child node; seed its own slicing.
          const size_t child_count = s.end - s.begin;
          const size_t child_leaves =
              (child_count + config_.leaf_capacity - 1) /
              config_.leaf_capacity;
          if (child_leaves <= 1) continue;
          GroupPlan child_plan{
              child_leaves, std::min(config_.internal_fanout, child_leaves)};
          out.push_back({s.begin, s.end, 0, child_plan.num_groups,
                         child_plan});
          continue;
        }
        const size_t group_mid = (s.group_lo + s.group_hi) / 2;
        const size_t leaves_left = s.plan.LeavesIn(s.group_lo, group_mid);
        const size_t leaves_total = s.plan.LeavesIn(s.group_lo, s.group_hi);
        const size_t left_count =
            LeftSliceCount(s.end - s.begin, leaves_left, leaves_total);
        const size_t split_dim =
            MaxVarianceDim(*collection_, positions, s.begin, s.end);
        std::nth_element(positions.begin() + s.begin,
                         positions.begin() + s.begin + left_count,
                         positions.begin() + s.end, [&](size_t a, size_t b) {
                           return collection_->Vector(a)[split_dim] <
                                  collection_->Vector(b)[split_dim];
                         });
        out.push_back({s.begin, s.begin + left_count, s.group_lo, group_mid,
                       s.plan});
        out.push_back({s.begin + left_count, s.end, group_mid, s.group_hi,
                       s.plan});
      }
    });
    std::vector<Slice> merged;
    for (std::vector<Slice>& out : next) {
      merged.insert(merged.end(), out.begin(), out.end());
    }
    frontier = std::move(merged);
  }
}

/// Phase 2: serial, data-free replay of the recursion that allocates nodes
/// in the exact order BuildStaticRecursive did (internal node after its
/// slicing, before its children; children in group order), wires parent
/// pointers, and records — per node id — the leaf's position range and the
/// node's depth. Internal nodes get placeholder entries holding only the
/// child id, in group order; phase 3 overwrites them with full summaries.
uint32_t SrTree::BuildSkeleton(
    size_t begin, size_t end, size_t depth,
    std::vector<std::pair<size_t, size_t>>* leaf_ranges,
    std::vector<size_t>* node_depths) {
  const size_t count = end - begin;
  const size_t num_leaves =
      (count + config_.leaf_capacity - 1) / config_.leaf_capacity;

  if (num_leaves <= 1) {
    const uint32_t leaf_id = NewNode(/*is_leaf=*/true);
    leaf_ranges->push_back({begin, end});
    node_depths->push_back(depth);
    return leaf_id;
  }

  // Recompute the group ranges with the same arithmetic as phase 1 (the
  // splits are already in `positions`; only the boundaries are needed).
  GroupPlan plan{num_leaves, std::min(config_.internal_fanout, num_leaves)};
  struct Slice {
    size_t begin, end, group_lo, group_hi;
  };
  std::vector<std::pair<size_t, size_t>> group_ranges(plan.num_groups);
  std::vector<Slice> stack{{begin, end, 0, plan.num_groups}};
  while (!stack.empty()) {
    const Slice s = stack.back();
    stack.pop_back();
    if (s.group_hi - s.group_lo == 1) {
      group_ranges[s.group_lo] = {s.begin, s.end};
      continue;
    }
    const size_t group_mid = (s.group_lo + s.group_hi) / 2;
    const size_t left_count =
        LeftSliceCount(s.end - s.begin, plan.LeavesIn(s.group_lo, group_mid),
                       plan.LeavesIn(s.group_lo, s.group_hi));
    stack.push_back({s.begin, s.begin + left_count, s.group_lo, group_mid});
    stack.push_back({s.begin + left_count, s.end, group_mid, s.group_hi});
  }

  const uint32_t node_id = NewNode(/*is_leaf=*/false);
  leaf_ranges->push_back({0, 0});
  node_depths->push_back(depth);
  for (size_t g = 0; g < plan.num_groups; ++g) {
    const auto [gb, ge] = group_ranges[g];
    QVT_CHECK(ge > gb);
    const uint32_t child_id =
        BuildSkeleton(gb, ge, depth + 1, leaf_ranges, node_depths);
    nodes_[child_id].parent = node_id;
    Entry placeholder;
    placeholder.child = child_id;
    nodes_[node_id].entries.push_back(std::move(placeholder));
  }
  return node_id;
}

/// Phase 3: fill the entries. All leaves are independent; internal nodes of
/// the same depth are independent once every deeper node is final, so the
/// sweep goes level by level from the deepest internal level up to the root.
void SrTree::FillEntries(
    const std::vector<size_t>& positions,
    const std::vector<std::pair<size_t, size_t>>& leaf_ranges,
    const std::vector<size_t>& node_depths) {
  std::vector<uint32_t> leaves;
  size_t max_depth = 0;
  for (size_t depth : node_depths) max_depth = std::max(max_depth, depth);
  std::vector<std::vector<uint32_t>> internal_by_depth(max_depth + 1);
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].is_leaf) {
      leaves.push_back(id);
    } else {
      internal_by_depth[node_depths[id]].push_back(id);
    }
  }

  ParallelFor(leaves.size(), 4, [&](size_t lo, size_t hi) {
    for (size_t li = lo; li < hi; ++li) {
      Node& leaf = nodes_[leaves[li]];
      const auto [range_begin, range_end] = leaf_ranges[leaves[li]];
      leaf.entries.reserve(range_end - range_begin);
      for (size_t i = range_begin; i < range_end; ++i) {
        leaf.entries.push_back(MakeLeafEntry(positions[i]));
      }
    }
  });

  for (size_t depth = max_depth + 1; depth-- > 0;) {
    const std::vector<uint32_t>& level = internal_by_depth[depth];
    ParallelFor(level.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t ni = lo; ni < hi; ++ni) {
        for (Entry& entry : nodes_[level[ni]].entries) {
          // SummarizeNode reads the (now final) child and returns the full
          // summary entry, .child included.
          entry = SummarizeNode(entry.child);
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Dynamic insertion
// ---------------------------------------------------------------------------

uint32_t SrTree::ChooseLeaf(std::span<const float> point) {
  uint32_t node_id = root_;
  while (!nodes_[node_id].is_leaf) {
    const Node& node = nodes_[node_id];
    size_t best = 0;
    double best_sq = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double sq = vec::SquaredDistance(node.entries[i].centroid, point);
      if (sq < best_sq) {
        best_sq = sq;
        best = i;
      }
    }
    node_id = node.entries[best].child;
  }
  return node_id;
}

void SrTree::Insert(size_t pos) {
  QVT_CHECK(pos < collection_->size());
  ++num_points_;
  if (root_ == kNoNode) {
    root_ = NewNode(/*is_leaf=*/true);
    nodes_[root_].entries.push_back(MakeLeafEntry(pos));
    return;
  }
  const uint32_t leaf_id = ChooseLeaf(Point(pos));
  InsertIntoLeaf(leaf_id, pos);
}

void SrTree::InsertIntoLeaf(uint32_t leaf_id, size_t pos) {
  nodes_[leaf_id].entries.push_back(MakeLeafEntry(pos));
  RefreshPathSummaries(leaf_id);
  if (nodes_[leaf_id].entries.size() > config_.leaf_capacity) {
    SplitNode(leaf_id);
  }
}

SrTree::Entry* SrTree::ParentEntryOf(uint32_t node_id) {
  const uint32_t parent_id = nodes_[node_id].parent;
  if (parent_id == kNoNode) return nullptr;
  for (Entry& e : nodes_[parent_id].entries) {
    if (e.child == node_id) return &e;
  }
  QVT_CHECK(false) << "node " << node_id << " missing from parent "
                   << parent_id;
  return nullptr;
}

void SrTree::RefreshPathSummaries(uint32_t node_id) {
  uint32_t current = node_id;
  while (true) {
    Entry* parent_entry = ParentEntryOf(current);
    if (parent_entry == nullptr) break;
    *parent_entry = SummarizeNode(current);
    current = nodes_[current].parent;
  }
}

void SrTree::SplitNode(uint32_t node_id) {
  Node& node = nodes_[node_id];
  QVT_CHECK(node.entries.size() >= 2);

  // Split dimension: maximum variance of entry centroids (SS-tree heuristic,
  // inherited by the SR-tree).
  const size_t dim = collection_->dim();
  size_t split_dim = 0;
  {
    std::vector<double> sum(dim, 0.0), sum_sq(dim, 0.0);
    for (const Entry& e : node.entries) {
      for (size_t d = 0; d < dim; ++d) {
        sum[d] += e.centroid[d];
        sum_sq[d] += static_cast<double>(e.centroid[d]) * e.centroid[d];
      }
    }
    const double n = static_cast<double>(node.entries.size());
    double best_var = -1.0;
    for (size_t d = 0; d < dim; ++d) {
      const double var = sum_sq[d] / n - (sum[d] / n) * (sum[d] / n);
      if (var > best_var) {
        best_var = var;
        split_dim = d;
      }
    }
  }
  std::sort(node.entries.begin(), node.entries.end(),
            [&](const Entry& a, const Entry& b) {
              return a.centroid[split_dim] < b.centroid[split_dim];
            });

  const size_t half = node.entries.size() / 2;
  const uint32_t sibling_id = NewNode(nodes_[node_id].is_leaf);
  // NewNode may reallocate nodes_; re-take the reference.
  Node& self = nodes_[node_id];
  Node& sibling = nodes_[sibling_id];
  sibling.entries.assign(self.entries.begin() + half, self.entries.end());
  self.entries.resize(half);
  if (!self.is_leaf) {
    for (const Entry& e : sibling.entries) {
      nodes_[e.child].parent = sibling_id;
    }
  }

  if (node_id == root_) {
    const uint32_t new_root = NewNode(/*is_leaf=*/false);
    nodes_[node_id].parent = new_root;
    nodes_[sibling_id].parent = new_root;
    nodes_[new_root].entries.push_back(SummarizeNode(node_id));
    nodes_[new_root].entries.push_back(SummarizeNode(sibling_id));
    nodes_[new_root].parent = kNoNode;
    root_ = new_root;
    return;
  }

  const uint32_t parent_id = nodes_[node_id].parent;
  nodes_[sibling_id].parent = parent_id;
  *ParentEntryOf(node_id) = SummarizeNode(node_id);
  nodes_[parent_id].entries.push_back(SummarizeNode(sibling_id));
  RefreshPathSummaries(parent_id);
  if (nodes_[parent_id].entries.size() > config_.internal_fanout) {
    SplitNode(parent_id);
  }
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

double SrTree::EntryMinDistance(const Entry& entry,
                                std::span<const float> query) const {
  // The SR-tree's region is the intersection of sphere and rectangle, so the
  // lower bound is the max of the two individual lower bounds.
  const double sphere_min =
      std::max(0.0, vec::Distance(entry.centroid, query) - entry.radius);
  const double rect_min = entry.rect.MinDistanceTo(query);
  return std::max(sphere_min, rect_min);
}

std::vector<SrNeighbor> SrTree::NearestNeighbors(std::span<const float> query,
                                                 size_t k) const {
  std::vector<SrNeighbor> result;
  if (root_ == kNoNode || k == 0) return result;

  struct QueueItem {
    double min_dist;
    uint32_t node;
    bool operator>(const QueueItem& other) const {
      return min_dist > other.min_dist;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      frontier;
  frontier.push({0.0, root_});

  // Max-heap of current best k (by distance).
  auto worse = [](const SrNeighbor& a, const SrNeighbor& b) {
    return a.distance < b.distance;
  };
  std::priority_queue<SrNeighbor, std::vector<SrNeighbor>, decltype(worse)>
      best(worse);

  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (best.size() == k && item.min_dist > best.top().distance) break;

    const Node& node = nodes_[item.node];
    if (node.is_leaf) {
      for (const Entry& e : node.entries) {
        const double d = vec::Distance(Point(e.position), query);
        if (best.size() < k) {
          best.push({e.position, d});
        } else if (d < best.top().distance) {
          best.pop();
          best.push({e.position, d});
        }
      }
    } else {
      for (const Entry& e : node.entries) {
        const double lb = EntryMinDistance(e, query);
        if (best.size() < k || lb <= best.top().distance) {
          frontier.push({lb, e.child});
        }
      }
    }
  }

  result.resize(best.size());
  for (size_t i = result.size(); i-- > 0;) {
    result[i] = best.top();
    best.pop();
  }
  return result;
}

std::vector<SrNeighbor> SrTree::RangeSearch(std::span<const float> query,
                                            double radius) const {
  std::vector<SrNeighbor> result;
  if (root_ == kNoNode || radius < 0.0) return result;

  std::vector<uint32_t> stack{root_};
  while (!stack.empty()) {
    const uint32_t node_id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    if (node.is_leaf) {
      for (const Entry& e : node.entries) {
        const double d = vec::Distance(Point(e.position), query);
        if (d <= radius) result.push_back({e.position, d});
      }
    } else {
      for (const Entry& e : node.entries) {
        if (EntryMinDistance(e, query) <= radius) stack.push_back(e.child);
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const SrNeighbor& a, const SrNeighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.position < b.position;
            });
  return result;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<std::vector<size_t>> SrTree::LeafPartitions() const {
  std::vector<std::vector<size_t>> partitions;
  if (root_ == kNoNode) return partitions;
  std::vector<uint32_t> stack{root_};
  while (!stack.empty()) {
    const uint32_t node_id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    if (node.is_leaf) {
      std::vector<size_t> positions;
      positions.reserve(node.entries.size());
      for (const Entry& e : node.entries) positions.push_back(e.position);
      partitions.push_back(std::move(positions));
    } else {
      // Push in reverse so leaves come out left-to-right.
      for (size_t i = node.entries.size(); i-- > 0;) {
        stack.push_back(node.entries[i].child);
      }
    }
  }
  return partitions;
}

SrTreeStats SrTree::Stats() const {
  SrTreeStats stats;
  stats.num_points = num_points_;
  if (root_ == kNoNode) return stats;

  stats.min_leaf_size = SIZE_MAX;
  std::vector<std::pair<uint32_t, size_t>> stack{{root_, 1}};
  while (!stack.empty()) {
    const auto [node_id, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    stats.height = std::max(stats.height, depth);
    if (node.is_leaf) {
      ++stats.num_leaves;
      stats.min_leaf_size = std::min(stats.min_leaf_size, node.entries.size());
      stats.max_leaf_size = std::max(stats.max_leaf_size, node.entries.size());
    } else {
      ++stats.num_internal;
      for (const Entry& e : node.entries) stack.push_back({e.child, depth + 1});
    }
  }
  if (stats.num_leaves == 0) stats.min_leaf_size = 0;
  return stats;
}

Status SrTree::ValidateNode(uint32_t node_id, const Entry& summary) const {
  const Node& node = nodes_[node_id];
  if (node.entries.empty()) {
    return Status::Corruption("empty node " + std::to_string(node_id));
  }
  if (node.entries.size() > Capacity(node)) {
    return Status::Corruption("node over capacity: " + std::to_string(node_id));
  }
  size_t count = 0;
  constexpr double kEps = 1e-3;
  for (const Entry& e : node.entries) {
    count += e.count;
    if (node.is_leaf) {
      const auto point = Point(e.position);
      const double d = vec::Distance(summary.centroid, point);
      if (d > summary.radius + kEps) {
        return Status::Corruption("leaf point outside sphere");
      }
      if (!summary.rect.Contains(point, kEps)) {
        return Status::Corruption("leaf point outside rect");
      }
    } else {
      if (nodes_[e.child].parent != node_id) {
        return Status::Corruption("bad parent pointer");
      }
      // Child sphere must fit in our sphere.
      const double d =
          vec::Distance(summary.centroid, e.centroid) + e.radius;
      if (d > summary.radius + kEps) {
        return Status::Corruption("child sphere outside parent sphere");
      }
      QVT_RETURN_IF_ERROR(ValidateNode(e.child, e));
    }
  }
  if (count != summary.count) {
    return Status::Corruption("count mismatch at node " +
                              std::to_string(node_id));
  }
  return Status::OK();
}

Status SrTree::Validate() const {
  if (root_ == kNoNode) {
    return num_points_ == 0
               ? Status::OK()
               : Status::Corruption("points recorded but no root");
  }
  const Entry summary = SummarizeNode(root_);
  if (summary.count != num_points_) {
    return Status::Corruption("root count mismatch");
  }
  return ValidateNode(root_, summary);
}

// ---------------------------------------------------------------------------
// Static serialization ("QVTSRT01"; layout in srtree/static_sr_tree.h)
// ---------------------------------------------------------------------------

Status SrTree::SaveStatic(Env* env, const std::string& path) const {
  if (root_ == kNoNode) {
    return Status::InvalidArgument("refusing to save an empty tree: " + path);
  }
  const uint32_t dim = static_cast<uint32_t>(collection_->dim());

  // Level-order (BFS) remap: the file's node i is the i-th node of a
  // breadth-first walk from the root, so node 0 is the root and every
  // parent precedes its children.
  std::vector<uint32_t> bfs_order;       // file id -> nodes_ id
  std::vector<uint32_t> file_id(nodes_.size(), kNoNode);
  bfs_order.push_back(root_);
  file_id[root_] = 0;
  for (size_t head = 0; head < bfs_order.size(); ++head) {
    const Node& n = nodes_[bfs_order[head]];
    if (n.is_leaf) continue;
    for (const Entry& e : n.entries) {
      file_id[e.child] = static_cast<uint32_t>(bfs_order.size());
      bfs_order.push_back(e.child);
    }
  }

  SrTreeFileHeader h;
  h.version = kSrTreeFormatVersion;
  h.dim = dim;
  h.num_nodes = bfs_order.size();
  h.num_points = num_points_;
  h.leaf_capacity = static_cast<uint32_t>(config_.leaf_capacity);
  h.internal_fanout = static_cast<uint32_t>(config_.internal_fanout);
  h.min_fill = config_.min_fill;
  for (const uint32_t old_id : bfs_order) {
    h.num_entries += nodes_[old_id].entries.size();
    if (nodes_[old_id].is_leaf) ++h.num_leaves;
  }

  auto writer = FormatWriter::Create(env, path, kSrTreeMagic);
  if (!writer.ok()) return writer.status();

  uint8_t header[kFormatHeaderBytes] = {};
  std::memcpy(header + 0, &kSrTreeMagic, 8);
  std::memcpy(header + 8, &h.version, 4);
  std::memcpy(header + 12, &h.dim, 4);
  std::memcpy(header + 16, &h.num_nodes, 8);
  std::memcpy(header + 24, &h.num_entries, 8);
  std::memcpy(header + 32, &h.num_leaves, 8);
  std::memcpy(header + 40, &h.num_points, 8);
  std::memcpy(header + 48, &h.leaf_capacity, 4);
  std::memcpy(header + 52, &h.internal_fanout, 4);
  std::memcpy(header + 56, &h.min_fill, 8);
  QVT_RETURN_IF_ERROR(writer->Append(header, sizeof(header)));

  // Node section: entry ranges are assigned by the same walk that writes
  // the entry section below, so they line up by construction.
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  uint64_t next_entry = 0;
  for (const uint32_t old_id : bfs_order) {
    const Node& n = nodes_[old_id];
    uint8_t record[kSrTreeNodeBytes] = {};
    const uint32_t is_leaf = n.is_leaf ? 1 : 0;
    const uint32_t parent =
        n.parent == kNoNode ? kSrTreeNoNode : file_id[n.parent];
    const uint64_t num_entries = n.entries.size();
    std::memcpy(record + 0, &is_leaf, 4);
    std::memcpy(record + 4, &parent, 4);
    std::memcpy(record + 8, &next_entry, 8);
    std::memcpy(record + 16, &num_entries, 8);
    QVT_RETURN_IF_ERROR(writer->Append(record, sizeof(record)));
    next_entry += num_entries;
  }

  // Entry section, contiguous per node in BFS node order.
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  std::vector<uint8_t> record(SrTreeEntryBytes(dim));
  for (const uint32_t old_id : bfs_order) {
    const Node& n = nodes_[old_id];
    for (const Entry& e : n.entries) {
      uint8_t* p = record.data();
      std::memcpy(p, e.centroid.data(), dim * sizeof(float));
      std::memcpy(p + 4 * dim, e.rect.min.data(), dim * sizeof(float));
      std::memcpy(p + 8 * dim, e.rect.max.data(), dim * sizeof(float));
      std::memcpy(p + 12 * dim, &e.radius, 8);
      const uint64_t count = e.count;
      const uint64_t position = e.position;
      const uint32_t child =
          n.is_leaf ? kSrTreeNoNode : file_id[e.child];
      const uint32_t reserved = 0;
      std::memcpy(p + 12 * dim + 8, &count, 8);
      std::memcpy(p + 12 * dim + 16, &position, 8);
      std::memcpy(p + 12 * dim + 24, &child, 4);
      std::memcpy(p + 12 * dim + 28, &reserved, 4);
      QVT_RETURN_IF_ERROR(writer->Append(record.data(), record.size()));
    }
  }

  // Leaf directory in LeafPartitions (DFS left-to-right = chunk) order —
  // BFS visits leaves by depth, so chunk order needs its own section.
  QVT_RETURN_IF_ERROR(writer->BeginSection().status());
  std::vector<uint32_t> dfs{root_};
  while (!dfs.empty()) {
    const uint32_t node_id = dfs.back();
    dfs.pop_back();
    const Node& n = nodes_[node_id];
    if (n.is_leaf) {
      uint8_t dir_record[kSrTreeLeafDirBytes] = {};
      std::memcpy(dir_record, &file_id[node_id], 4);
      QVT_RETURN_IF_ERROR(writer->Append(dir_record, sizeof(dir_record)));
    } else {
      for (size_t i = n.entries.size(); i-- > 0;) {
        dfs.push_back(n.entries[i].child);
      }
    }
  }

  QVT_CHECK(writer->offset() == SrTreeFileLayout::For(h).footer_off);
  return writer->Finish();
}

StatusOr<SrTree> SrTree::LoadStatic(const Collection* collection, Env* env,
                                    const std::string& path) {
  // Open runs the structural checks and VerifyCrc the checksum, so the
  // rebuild below can trust record contents (links, ranges, counts).
  auto view = StaticSrTree::Open(env, path);
  if (!view.ok()) return view.status();
  QVT_RETURN_IF_ERROR(view->VerifyCrc());
  const SrTreeFileHeader& h = view->header();
  if (collection->dim() != h.dim) {
    return Status::Corruption("tree dim " + std::to_string(h.dim) +
                              " does not match collection dim " +
                              std::to_string(collection->dim()) + " in " +
                              path);
  }
  // The SrTree constructor QVT_CHECKs its config; screen a corrupt header
  // into a Status instead of an abort.
  if (h.leaf_capacity < 2 || h.internal_fanout < 2 || !(h.min_fill > 0.0) ||
      h.min_fill > 0.5) {
    return Status::Corruption("invalid tree config in " + path);
  }

  SrTreeConfig config;
  config.leaf_capacity = h.leaf_capacity;
  config.internal_fanout = h.internal_fanout;
  config.min_fill = h.min_fill;
  SrTree tree(collection, config);
  tree.num_points_ = h.num_points;
  tree.root_ = 0;
  tree.nodes_.resize(h.num_nodes);
  const std::vector<std::vector<size_t>> partitions = view->LeafPartitions();
  size_t num_positions = 0;
  for (const auto& p : partitions) num_positions += p.size();
  if (num_positions != h.num_points) {
    return Status::Corruption("leaf directory points mismatch in " + path);
  }

  for (uint64_t i = 0; i < h.num_nodes; ++i) {
    // Decode through the same record accessors the zero-copy view uses.
    const auto dir = view->node(i);
    Node& node = tree.nodes_[i];
    node.is_leaf = dir.is_leaf;
    node.parent = dir.parent == kSrTreeNoNode ? kNoNode : dir.parent;
    node.entries.resize(dir.num_entries);
    for (uint64_t j = 0; j < dir.num_entries; ++j) {
      const uint64_t e = dir.first_entry + j;
      Entry& entry = node.entries[j];
      const auto centroid = view->entry_centroid(e);
      entry.centroid.assign(centroid.begin(), centroid.end());
      entry.radius = view->entry_radius(e);
      const auto lo = view->entry_rect_lo(e);
      const auto hi = view->entry_rect_hi(e);
      entry.rect = Rect(std::vector<float>(lo.begin(), lo.end()),
                        std::vector<float>(hi.begin(), hi.end()));
      entry.count = view->entry_count(e);
      entry.position = view->entry_position(e);
      const uint32_t child = view->entry_child(e);
      entry.child = child == kSrTreeNoNode ? kNoNode : child;
      if (node.is_leaf && entry.position >= collection->size()) {
        return Status::Corruption("leaf position " +
                                  std::to_string(entry.position) +
                                  " outside collection in " + path);
      }
    }
  }
  return tree;
}

}  // namespace qvt

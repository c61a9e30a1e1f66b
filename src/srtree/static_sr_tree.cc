#include "srtree/static_sr_tree.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "geometry/vec.h"

namespace qvt {

SrTreeFileLayout SrTreeFileLayout::For(const SrTreeFileHeader& h) {
  SrTreeFileLayout l;
  l.nodes_off = kFormatHeaderBytes;
  l.entries_off = AlignUp(l.nodes_off + h.num_nodes * kSrTreeNodeBytes);
  l.leaf_dir_off =
      AlignUp(l.entries_off + h.num_entries * SrTreeEntryBytes(h.dim));
  l.footer_off = l.leaf_dir_off + h.num_leaves * kSrTreeLeafDirBytes;
  return l;
}

StatusOr<StaticSrTree> StaticSrTree::Open(Env* env, const std::string& path) {
  auto file = env->NewMemoryMappedFile(path);
  if (!file.ok()) return file.status();

  StaticSrTree tree(std::move(file).value(), path);
  const FormatView fv(tree.file_->bytes(), tree.path_);
  QVT_RETURN_IF_ERROR(fv.CheckEnvelope(kSrTreeMagic, kSrTreeFormatVersion));

  const uint8_t* h = fv.data();
  SrTreeFileHeader& header = tree.header_;
  header.version = LoadU32(h + 8);
  header.dim = LoadU32(h + 12);
  header.num_nodes = LoadU64(h + 16);
  header.num_entries = LoadU64(h + 24);
  header.num_leaves = LoadU64(h + 32);
  header.num_points = LoadU64(h + 40);
  header.leaf_capacity = LoadU32(h + 48);
  header.internal_fanout = LoadU32(h + 52);
  header.min_fill = LoadF64(h + 56);

  if (header.dim == 0) return fv.CorruptionAt(12, "tree dim is zero");
  if (header.num_nodes == 0 || header.num_entries == 0 ||
      header.num_leaves == 0) {
    return fv.CorruptionAt(16, "zero-entry tree");
  }
  const SrTreeFileLayout layout = SrTreeFileLayout::For(header);
  if (layout.footer_off != fv.size() - kFormatFooterBytes) {
    return fv.CorruptionAt(16, "header counts disagree with file size " +
                                   std::to_string(fv.size()));
  }

  auto nodes = fv.Section(layout.nodes_off, header.num_nodes,
                          kSrTreeNodeBytes, "node array");
  if (!nodes.ok()) return nodes.status();
  auto entries = fv.Section(layout.entries_off, header.num_entries,
                            SrTreeEntryBytes(header.dim), "entry array");
  if (!entries.ok()) return entries.status();
  auto leaf_dir = fv.Section(layout.leaf_dir_off, header.num_leaves,
                             kSrTreeLeafDirBytes, "leaf directory");
  if (!leaf_dir.ok()) return leaf_dir.status();
  tree.nodes_ = *nodes;
  tree.entries_ = *entries;
  tree.leaf_dir_ = *leaf_dir;

  QVT_RETURN_IF_ERROR(tree.ValidateStructure());
  return tree;
}

StaticSrTree::NodeRef StaticSrTree::node(uint64_t i) const {
  const uint8_t* p = nodes_ + i * kSrTreeNodeBytes;
  NodeRef n;
  n.is_leaf = LoadU32(p) != 0;
  n.parent = LoadU32(p + 4);
  n.first_entry = LoadU64(p + 8);
  n.num_entries = LoadU64(p + 16);
  return n;
}

double StaticSrTree::EntryMinDistance(uint64_t e,
                                      std::span<const float> query) const {
  const double sphere_min = std::max(
      0.0, vec::Distance(entry_centroid(e), query) - entry_radius(e));
  const std::span<const float> lo = entry_rect_lo(e);
  const std::span<const float> hi = entry_rect_hi(e);
  double sum = 0.0;
  for (size_t i = 0; i < query.size(); ++i) {
    double d = 0.0;
    if (query[i] < lo[i]) {
      d = lo[i] - query[i];
    } else if (query[i] > hi[i]) {
      d = query[i] - hi[i];
    }
    sum += d * d;
  }
  return std::max(sphere_min, std::sqrt(sum));
}

std::vector<SrNeighbor> StaticSrTree::NearestNeighbors(
    std::span<const float> query, size_t k) const {
  std::vector<SrNeighbor> result;
  if (k == 0 || query.size() != header_.dim) return result;

  struct QueueItem {
    double min_dist;
    uint32_t node;
    bool operator>(const QueueItem& other) const {
      return min_dist > other.min_dist;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      frontier;
  frontier.push({0.0, 0});  // level order: the root is node 0

  auto worse = [](const SrNeighbor& a, const SrNeighbor& b) {
    return a.distance < b.distance;
  };
  std::priority_queue<SrNeighbor, std::vector<SrNeighbor>, decltype(worse)>
      best(worse);

  while (!frontier.empty()) {
    const QueueItem item = frontier.top();
    frontier.pop();
    if (best.size() == k && item.min_dist > best.top().distance) break;

    const NodeRef n = node(item.node);
    for (uint64_t e = n.first_entry; e < n.first_entry + n.num_entries; ++e) {
      if (n.is_leaf) {
        // A leaf entry's centroid is the point itself (radius 0), so this
        // distance is exact and equal to the in-memory tree's
        // vec::Distance(Point(position), query).
        const double d = vec::Distance(entry_centroid(e), query);
        const size_t position = entry_position(e);
        if (best.size() < k) {
          best.push({position, d});
        } else if (d < best.top().distance) {
          best.pop();
          best.push({position, d});
        }
      } else {
        const double lb = EntryMinDistance(e, query);
        if (best.size() < k || lb <= best.top().distance) {
          frontier.push({lb, entry_child(e)});
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

std::vector<std::vector<size_t>> StaticSrTree::LeafPartitions() const {
  std::vector<std::vector<size_t>> partitions;
  partitions.reserve(header_.num_leaves);
  for (uint64_t i = 0; i < header_.num_leaves; ++i) {
    const NodeRef leaf = node(leaf_dir_node(i));
    std::vector<size_t> positions;
    positions.reserve(leaf.num_entries);
    for (uint64_t e = leaf.first_entry;
         e < leaf.first_entry + leaf.num_entries; ++e) {
      positions.push_back(entry_position(e));
    }
    partitions.push_back(std::move(positions));
  }
  return partitions;
}

Status StaticSrTree::VerifyCrc() const {
  return FormatView(file_->bytes(), path_).VerifyCrc();
}

Status StaticSrTree::ValidateStructure() const {
  const FormatView fv(file_->bytes(), path_);
  const SrTreeFileLayout layout = SrTreeFileLayout::For(header_);
  uint64_t leaves_seen = 0;
  uint64_t points_in_leaves = 0;
  for (uint64_t i = 0; i < header_.num_nodes; ++i) {
    const uint64_t at = layout.nodes_off + i * kSrTreeNodeBytes;
    const NodeRef n = node(i);
    if (n.num_entries == 0) {
      return fv.CorruptionAt(at, "node " + std::to_string(i) +
                                     " has no entries");
    }
    if (n.first_entry > header_.num_entries ||
        n.num_entries > header_.num_entries - n.first_entry) {
      return fv.CorruptionAt(at, "node " + std::to_string(i) +
                                     " entry range out of bounds");
    }
    if (i == 0 ? n.parent != kSrTreeNoNode : n.parent >= i) {
      // Level order puts every parent before its children.
      return fv.CorruptionAt(at + 4, "node " + std::to_string(i) +
                                         " has invalid parent link");
    }
    for (uint64_t e = n.first_entry; e < n.first_entry + n.num_entries;
         ++e) {
      const uint32_t child = entry_child(e);
      if (n.is_leaf) {
        if (child != kSrTreeNoNode) {
          return fv.CorruptionAt(at, "leaf node " + std::to_string(i) +
                                         " entry has a child link");
        }
      } else {
        if (child <= i || child >= header_.num_nodes ||
            node(child).parent != i) {
          return fv.CorruptionAt(at, "node " + std::to_string(i) +
                                         " child link inconsistent");
        }
      }
    }
    if (n.is_leaf) {
      ++leaves_seen;
      points_in_leaves += n.num_entries;
    }
  }
  if (leaves_seen != header_.num_leaves) {
    return fv.CorruptionAt(32, "leaf count mismatch: header says " +
                                   std::to_string(header_.num_leaves) +
                                   ", nodes hold " +
                                   std::to_string(leaves_seen));
  }
  if (points_in_leaves != header_.num_points) {
    return fv.CorruptionAt(40, "point count mismatch: header says " +
                                   std::to_string(header_.num_points) +
                                   ", leaves hold " +
                                   std::to_string(points_in_leaves));
  }
  // The leaf directory must name each leaf exactly once.
  std::vector<bool> in_directory(header_.num_nodes, false);
  for (uint64_t i = 0; i < header_.num_leaves; ++i) {
    const uint32_t id = leaf_dir_node(i);
    const uint64_t at = layout.leaf_dir_off + i * kSrTreeLeafDirBytes;
    if (id >= header_.num_nodes || !node(id).is_leaf) {
      return fv.CorruptionAt(at, "leaf directory names a non-leaf node");
    }
    if (in_directory[id]) {
      return fv.CorruptionAt(at, "leaf directory repeats node " +
                                     std::to_string(id));
    }
    in_directory[id] = true;
  }
  return Status::OK();
}

}  // namespace qvt

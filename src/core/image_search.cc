#include "core/image_search.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace qvt {

ImageSearcher::ImageSearcher(const Searcher* searcher,
                             std::vector<ImageId> image_of_descriptor)
    : searcher_(searcher),
      image_of_descriptor_(std::move(image_of_descriptor)) {
  QVT_CHECK(searcher != nullptr);
}

StatusOr<std::vector<ImageMatch>> ImageSearcher::Search(
    std::span<const float> descriptors, size_t dim,
    const ImageSearchOptions& options, ImageSearchStats* stats) const {
  if (dim == 0 || descriptors.size() % dim != 0) {
    return Status::InvalidArgument(
        "descriptor array size is not a multiple of the dimension");
  }
  if (descriptors.empty()) {
    return Status::InvalidArgument("no query descriptors");
  }
  if (options.k_per_descriptor == 0) {
    return Status::InvalidArgument("k_per_descriptor must be positive");
  }

  const size_t num_queries = descriptors.size() / dim;
  struct Tally {
    double score = 0.0;
    size_t votes = 0;
  };
  std::unordered_map<ImageId, Tally> tallies;

  ImageSearchStats local_stats;
  for (size_t q = 0; q < num_queries; ++q) {
    const std::span<const float> query = descriptors.subspan(q * dim, dim);
    auto result =
        searcher_->Search(query, options.k_per_descriptor, options.stop);
    if (!result.ok()) return result.status();

    ++local_stats.descriptor_queries;
    local_stats.chunks_read += result->telemetry.chunks_read;
    local_stats.model_elapsed_micros += result->telemetry.model_micros;
    local_stats.wall_elapsed_micros += result->telemetry.wall_micros;

    for (size_t rank = 0; rank < result->neighbors.size(); ++rank) {
      const Neighbor& n = result->neighbors[rank];
      if (n.id >= image_of_descriptor_.size()) continue;
      Tally& tally = tallies[image_of_descriptor_[n.id]];
      ++tally.votes;
      switch (options.voting) {
        case VotingScheme::kCount:
          tally.score += 1.0;
          break;
        case VotingScheme::kDistanceWeighted:
          tally.score += 1.0 / (1.0 + n.distance);
          break;
        case VotingScheme::kRankWeighted:
          tally.score += static_cast<double>(options.k_per_descriptor - rank);
          break;
      }
    }
  }

  std::vector<ImageMatch> matches;
  matches.reserve(tallies.size());
  for (const auto& [image, tally] : tallies) {
    matches.push_back({image, tally.score, tally.votes});
  }
  std::sort(matches.begin(), matches.end(),
            [](const ImageMatch& a, const ImageMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.image < b.image;
            });
  if (options.max_results > 0 && matches.size() > options.max_results) {
    matches.resize(options.max_results);
  }
  if (stats != nullptr) *stats = local_stats;
  return matches;
}

}  // namespace qvt

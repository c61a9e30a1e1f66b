// Copyright-protection scenario (§4.1 of the paper: local descriptors "are
// particularly well suited to enforce robust content-based image searches
// for copyright protection").
//
// A "pirate" takes one image from the collection, transforms it (here:
// additive noise and dropping half of the descriptors, standing in for
// cropping/re-encoding), and we must identify the source image. Each
// surviving descriptor votes for the image that owns its nearest neighbors;
// the image with the most votes wins. Approximate search with a small chunk
// budget is enough to identify the source — the point of the paper.
//
//   ./build/examples/copyright_search

#include <cstdio>
#include <map>
#include <vector>

#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "util/random.h"

int main() {
  using namespace qvt;

  GeneratorConfig generator;
  generator.num_images = 300;
  generator.descriptors_per_image = 80;
  generator.num_modes = 30;
  generator.seed = 2024;
  const Collection collection = GenerateCollection(generator);

  // Map descriptor id -> source image for vote counting.
  std::vector<ImageId> image_of(collection.size());
  for (size_t i = 0; i < collection.size(); ++i) {
    image_of[collection.Id(i)] = collection.Image(i);
  }

  SrTreeChunker chunker(1000);
  auto chunking = chunker.FormChunks(collection);
  if (!chunking.ok()) return 1;
  auto index = ChunkIndex::Build(collection, *chunking, Env::Posix(),
                                 ChunkIndexPaths::ForBase("/tmp/copyright"));
  if (!index.ok()) return 1;
  Searcher searcher(&*index, DiskCostModel());

  // The pirated image: take image 123's descriptors, keep every other one,
  // and perturb each component.
  const ImageId pirated = 123;
  Rng rng(7);
  std::vector<std::vector<float>> pirate_descriptors;
  size_t parity = 0;
  for (size_t i = 0; i < collection.size(); ++i) {
    if (collection.Image(i) != pirated) continue;
    if (++parity % 2 == 0) continue;  // "cropped away"
    std::vector<float> d(collection.Vector(i).begin(),
                         collection.Vector(i).end());
    for (auto& x : d) x += static_cast<float>(rng.Gaussian(0.0, 0.4));
    pirate_descriptors.push_back(std::move(d));
  }
  std::printf("pirated copy of image %u: %zu descriptors after transform\n",
              pirated, pirate_descriptors.size());

  // Vote with an aggressive approximate search: 2 chunks per descriptor.
  std::map<ImageId, int> votes;
  int64_t total_model_micros = 0;
  for (const auto& d : pirate_descriptors) {
    auto result = searcher.Search(d, /*k=*/5, StopRule::MaxChunks(2));
    if (!result.ok()) return 1;
    total_model_micros += result->telemetry.model_micros;
    for (const Neighbor& n : result->neighbors) {
      ++votes[image_of[n.id]];
    }
  }

  // Report the top 5 candidates.
  std::vector<std::pair<int, ImageId>> ranked;
  for (const auto& [image, count] : votes) ranked.push_back({count, image});
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\ntop candidate source images (votes from %zu queries):\n",
              pirate_descriptors.size());
  for (size_t i = 0; i < std::min<size_t>(5, ranked.size()); ++i) {
    std::printf("  image %-6u votes %-5d %s\n", ranked[i].second,
                ranked[i].first,
                ranked[i].second == pirated ? "<== pirated source" : "");
  }
  std::printf("\nmodeled search time for the whole identification: %.2f s "
              "(2 chunks per descriptor, %zu chunks in the index)\n",
              total_model_micros * 1e-6, index->num_chunks());

  if (!ranked.empty() && ranked.front().second == pirated) {
    std::printf("source image correctly identified.\n");
    return 0;
  }
  std::printf("identification failed!\n");
  return 1;
}

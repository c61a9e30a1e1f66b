// Quickstart: the whole pipeline in one file.
//
//  1. Generate a synthetic collection of 24-d local image descriptors.
//  2. Form uniform-size chunks with the SR-tree chunker.
//  3. Build the two-file chunk index (chunk file + index file).
//  4. Run an approximate search (read 3 chunks) and an exact search, and
//     compare them.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "cluster/srtree_chunker.h"
#include "core/chunk_index.h"
#include "core/exact_scan.h"
#include "core/searcher.h"
#include "descriptor/generator.h"
#include "util/env.h"

int main() {
  using namespace qvt;

  // 1. A small synthetic collection: 200 images, ~100 descriptors each.
  GeneratorConfig generator;
  generator.num_images = 200;
  generator.descriptors_per_image = 100;
  generator.num_modes = 20;
  const Collection collection = GenerateCollection(generator);
  std::printf("collection: %zu descriptors of dimension %zu\n",
              collection.size(), collection.dim());

  // 2. Uniform-size chunks of ~1000 descriptors (one SR-tree leaf each).
  SrTreeChunker chunker(/*leaf_capacity=*/1000);
  auto chunking = chunker.FormChunks(collection);
  if (!chunking.ok()) {
    std::printf("chunking failed: %s\n",
                chunking.status().ToString().c_str());
    return 1;
  }
  std::printf("chunks: %s\n", chunking->Populations().ToString().c_str());

  // 3. Build the on-disk chunk index.
  auto index = ChunkIndex::Build(collection, *chunking, Env::Posix(),
                                 ChunkIndexPaths::ForBase("/tmp/quickstart"));
  if (!index.ok()) {
    std::printf("index build failed: %s\n", index.status().ToString().c_str());
    return 1;
  }

  // 4. Search: the query is a collection descriptor, so its exact nearest
  //    neighbor is itself at distance 0.
  const auto query = collection.Vector(4321);
  Searcher searcher(&*index, DiskCostModel());

  auto approx = searcher.Search(query, /*k=*/10, StopRule::MaxChunks(3));
  auto exact = searcher.Search(query, /*k=*/10, StopRule::Exact());
  if (!approx.ok() || !exact.ok()) return 1;

  std::printf("\napproximate (3 chunks, modeled %.0f ms):\n",
              approx->telemetry.model_micros / 1000.0);
  for (const Neighbor& n : approx->neighbors) {
    std::printf("  id %-8u dist %.3f\n", n.id, n.distance);
  }
  std::printf("exact (%zu chunks, modeled %.0f ms):\n",
              exact->telemetry.chunks_read,
              exact->telemetry.model_micros / 1000.0);
  for (const Neighbor& n : exact->neighbors) {
    std::printf("  id %-8u dist %.3f\n", n.id, n.distance);
  }

  // How good was the approximation?
  size_t hits = 0;
  for (const Neighbor& a : approx->neighbors) {
    for (const Neighbor& e : exact->neighbors) {
      if (a.id == e.id) {
        ++hits;
        break;
      }
    }
  }
  std::printf("\napproximate search found %zu/10 of the true neighbors in "
              "%zu of %zu chunks\n",
              hits, approx->telemetry.chunks_read, index->num_chunks());
  return 0;
}

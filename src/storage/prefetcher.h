#ifndef QVT_STORAGE_PREFETCHER_H_
#define QVT_STORAGE_PREFETCHER_H_

#include <cstddef>

namespace qvt {

/// Settings of the retired chunk read-ahead. Nothing in the library reads
/// them: every chunk is fetched synchronously (Searcher's FetchChunk), and
/// the modeled overlap uses kModeledReadAheadDepth (storage/disk_cost_model.h).
/// Kept only because perfbench/ spells this header and these fields.
struct PrefetcherOptions {
  size_t depth = 0;
  size_t io_threads = 0;
  size_t pool_buffers = 0;
};

}  // namespace qvt

#endif  // QVT_STORAGE_PREFETCHER_H_

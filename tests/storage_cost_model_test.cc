#include "storage/disk_cost_model.h"

#include <gtest/gtest.h>

#include "descriptor/types.h"

namespace qvt {
namespace {

TEST(DiskCostModelTest, IoChargesSeekPlusTransfer) {
  DiskCostModel model;
  const auto& cfg = model.config();
  EXPECT_EQ(model.ChunkIoMicros(0), cfg.seek_micros);
  EXPECT_EQ(model.ChunkIoMicros(10),
            cfg.seek_micros + 10 * cfg.transfer_micros_per_page);
}

TEST(DiskCostModelTest, CpuScalesWithDescriptors) {
  DiskCostModel model;
  EXPECT_EQ(model.ChunkCpuMicros(0), 0);
  EXPECT_EQ(model.ChunkCpuMicros(1000),
            static_cast<int64_t>(1000 * model.config().cpu_micros_per_distance));
}

TEST(DiskCostModelTest, OverlapTakesMax) {
  DiskCostModelConfig cfg;
  cfg.overlap_io_cpu = true;
  DiskCostModel overlap(cfg);
  cfg.overlap_io_cpu = false;
  DiskCostModel serial(cfg);

  const uint32_t pages = 10, descriptors = 100000;
  const int64_t io = overlap.ChunkIoMicros(pages);
  const int64_t cpu = overlap.ChunkCpuMicros(descriptors);
  EXPECT_EQ(overlap.ChunkTotalMicros(pages, descriptors), std::max(io, cpu));
  EXPECT_EQ(serial.ChunkTotalMicros(pages, descriptors), io + cpu);
}

TEST(DiskCostModelTest, CalibrationSmallSrChunkIsAboutTenMs) {
  // §5.5: "reading and processing each chunk takes only about 10
  // milliseconds" for SR chunks of 1-2.5k descriptors.
  DiskCostModel model;
  const uint32_t descriptors = 1719;  // paper's MEDIUM SR chunk
  const uint32_t pages = static_cast<uint32_t>(
      PagesForBytes(descriptors * DescriptorRecordBytes(kDescriptorDim)));
  const double ms =
      static_cast<double>(model.ChunkTotalMicros(pages, descriptors)) / 1000.0;
  EXPECT_GT(ms, 5.0);
  EXPECT_LT(ms, 20.0);
}

TEST(DiskCostModelTest, CalibrationGiantBagChunkIsAboutTwoSeconds) {
  // §5.5: "processing the largest chunk of the BAG algorithm took as much
  // as 1.8 seconds" (~1M descriptors).
  DiskCostModel model;
  const uint32_t descriptors = 1000000;
  const uint32_t pages = static_cast<uint32_t>(
      PagesForBytes(static_cast<uint64_t>(descriptors) *
                    DescriptorRecordBytes(kDescriptorDim)));
  const double seconds =
      static_cast<double>(model.ChunkTotalMicros(pages, descriptors)) * 1e-6;
  EXPECT_GT(seconds, 1.2);
  EXPECT_LT(seconds, 3.0);
}

TEST(DiskCostModelTest, CalibrationIndexScanTensOfMs) {
  // §5.5: "reading the chunk index takes about 50 milliseconds on average"
  // for 1,871-4,720 chunks.
  DiskCostModel model;
  const double ms_small =
      static_cast<double>(model.IndexScanMicros(4720)) / 1000.0;
  const double ms_large =
      static_cast<double>(model.IndexScanMicros(1871)) / 1000.0;
  EXPECT_GT(ms_small, 20.0);
  EXPECT_LT(ms_small, 100.0);
  EXPECT_GT(ms_large, 10.0);
  EXPECT_LT(ms_large, ms_small);
}

TEST(DiskCostModelTest, PagesForBytesRoundsUp) {
  EXPECT_EQ(PagesForBytes(0), 0u);
  EXPECT_EQ(PagesForBytes(1), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize), 1u);
  EXPECT_EQ(PagesForBytes(kPageSize + 1), 2u);
}

// ---------------------------------------------------------------------------
// OverlappedScanTimeline (the modeled wall clock of a read-ahead scan)
// ---------------------------------------------------------------------------

TEST(OverlappedScanTimelineTest, DepthZeroIsTheSerialSum) {
  OverlappedScanTimeline timeline(0, /*start_micros=*/100);
  timeline.AddChunk(10, 5);
  timeline.AddChunk(20, 7);
  timeline.AddChunk(0, 3);  // cache hit
  EXPECT_EQ(timeline.ElapsedMicros(), 100 + (10 + 5) + (20 + 7) + (0 + 3));
}

TEST(OverlappedScanTimelineTest, DepthOnePipelinesBalancedChunks) {
  // io == cpu == 10: a one-deep window is already a perfect pipeline —
  // after the first read, every scan hides exactly one read.
  OverlappedScanTimeline timeline(1);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(10, 10);
  EXPECT_EQ(timeline.ElapsedMicros(), 10 + 3 * 10);
  OverlappedScanTimeline serial(0);
  for (int i = 0; i < 3; ++i) serial.AddChunk(10, 10);
  EXPECT_EQ(serial.ElapsedMicros(), 3 * 20);
}

TEST(OverlappedScanTimelineTest, IoBoundPipelineIsDiskLimited) {
  // io 10, cpu 2: the disk is the bottleneck, so elapsed approaches
  // sum(io) + the last scan.
  OverlappedScanTimeline timeline(1);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(10, 2);
  EXPECT_EQ(timeline.ElapsedMicros(), 3 * 10 + 2);
}

TEST(OverlappedScanTimelineTest, CpuBoundPipelineIsScanLimited) {
  // io 2, cpu 10 at depth 2: after the first arrival the scan never waits.
  OverlappedScanTimeline timeline(2);
  for (int i = 0; i < 3; ++i) timeline.AddChunk(2, 10);
  EXPECT_EQ(timeline.ElapsedMicros(), 2 + 3 * 10);
}

TEST(OverlappedScanTimelineTest, CacheHitsOccupyNoDiskTime) {
  OverlappedScanTimeline timeline(2);
  timeline.AddChunk(0, 5);   // hit: scan starts immediately
  timeline.AddChunk(10, 5);  // its read overlapped the first scan
  timeline.AddChunk(0, 5);   // hit: ready the moment the scan frees up
  EXPECT_EQ(timeline.ElapsedMicros(), 20);
}

TEST(OverlappedScanTimelineTest, DeeperWindowsNeverSlowTheScanDown) {
  const int64_t io[] = {9, 3, 14, 6, 2, 11, 5, 8};
  const int64_t cpu[] = {4, 12, 2, 9, 7, 3, 10, 6};
  int64_t previous = 0;
  for (size_t depth = 0; depth <= 5; ++depth) {
    OverlappedScanTimeline timeline(depth, 50);
    for (size_t i = 0; i < 8; ++i) timeline.AddChunk(io[i], cpu[i]);
    if (depth > 0) {
      EXPECT_LE(timeline.ElapsedMicros(), previous) << "depth " << depth;
    }
    previous = timeline.ElapsedMicros();
  }
  // And no depth can beat the disk or the CPU running flat out.
  int64_t io_sum = 0, cpu_sum = 0;
  for (size_t i = 0; i < 8; ++i) {
    io_sum += io[i];
    cpu_sum += cpu[i];
  }
  OverlappedScanTimeline deep(64, 50);
  for (size_t i = 0; i < 8; ++i) deep.AddChunk(io[i], cpu[i]);
  EXPECT_GE(deep.ElapsedMicros(), 50 + std::max(io_sum, cpu_sum));
}

}  // namespace
}  // namespace qvt

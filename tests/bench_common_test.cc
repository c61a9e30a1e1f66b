// The benches' shared command line: --build-threads is the one switch for
// the build pool, so a value it cannot use stops the bench before any work.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include "util/parallel_for.h"

namespace qvt {
namespace {

TEST(BenchCommonTest, BuildThreadsAcceptsNonNegativeIntegers) {
  EXPECT_EQ(bench::ParseBuildThreads("0"), 0u);
  EXPECT_EQ(bench::ParseBuildThreads("3"), 3u);
}

TEST(BenchCommonTest, BuildThreadsRejectsEverythingElse) {
  for (const char* bad : {"abc", "-3", "", "2x", " 2", "1.5",
                          "99999999999999999999999"}) {
    EXPECT_EXIT(bench::ParseBuildThreads(bad), ::testing::ExitedWithCode(2),
                "error: --build-threads: must be a non-negative integer")
        << "'" << bad << "'";
  }
}

TEST(BenchCommonTest, ParseConfigAppliesAndChecksTheFlag) {
  char program[] = "bench";
  char tiny[] = "--tiny";
  char flag[] = "--build-threads";
  char two[] = "2";
  char* good[] = {program, tiny, flag, two};
  bench::ParseConfig(4, good);
  EXPECT_EQ(BuildThreads(), 2u);
  SetBuildThreads(0);

  char* missing[] = {program, tiny, flag};
  EXPECT_EXIT(bench::ParseConfig(3, missing), ::testing::ExitedWithCode(2),
              "--build-threads");
}

}  // namespace
}  // namespace qvt

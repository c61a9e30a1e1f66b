#include "workload.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuStat CpuStat::Read() {
  CpuStat stat;
  FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return stat;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  unsigned long long v[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) stat.total += x;
    stat.steal = v[7];
  }
  std::fclose(file);
  return stat;
}

double CpuStat::StealShareSince(const CpuStat& before) const {
  const uint64_t total_ticks = total - before.total;
  return total_ticks == 0 ? 0.0
                          : static_cast<double>(steal - before.steal) /
                                static_cast<double>(total_ticks);
}

}  // namespace perfbench

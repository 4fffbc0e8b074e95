#include <sys/resource.h>
#include <time.h>

#include <algorithm>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  if (values.empty()) return s;
  s.p50 = median(values);
  std::sort(values.begin(), values.end());
  // The k-th smallest sample (1-based) has n - k samples beyond it; the
  // tail is the largest k that leaves at least ten, capped at p90: on runs
  // of a hundred thousand HDFS ops a deeper percentile measures scheduler
  // and page-fault hiccups of the shared machine more than the program.
  const size_t n = values.size();
  if (n > 10) {
    const size_t k = std::min(n - 10, static_cast<size_t>(0.90 * n));
    s.tail = values[k - 1];
    s.tail_percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  } else {
    s.tail = values.back();
  }
  return s;
}

double processCpuMs() {
  // Nanosecond process CPU clock (all threads, user + sys); getrusage
  // rounds to microseconds, too coarse for HDFS ops.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

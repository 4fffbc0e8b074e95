#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file bench.h
/// Shared types of the end-to-end benchmark. A workload boots an in-process
/// cluster, stages seed-generated inputs, and drives one closed-loop client:
/// each op (a whole MapReduce job, or one HDFS call) starts only after the
/// previous one returned. Everything the benchmark reports is read from
/// outside the engine: client-side timings around public calls, job
/// counters and history, fabric traffic stats, metrics-registry deltas,
/// ledger gauges and the existing trace spans.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where result JSON, Chrome traces and critical-path reports go.
  std::string results_dir;
  /// Scratch space for the journaling NameNode's name directory.
  std::string work_dir;
  /// Flips one byte of one op's output before the oracle sees it; the run
  /// must then report correct=false (proves the oracle is live).
  bool corrupt_output = false;
};

/// Nanosecond-resolution stopwatch: the engine's Stopwatch rounds to whole
/// microseconds, too coarse for HDFS ops that take a few of them.
class Timer {
 public:
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double seconds() const { return ms() / 1e3; }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Latency summary: median plus the highest percentile (at most p90) that
/// still has at least ten samples beyond it, with the sample count.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;  ///< 0 when fewer than 11 samples
};

LatencySummary summarize(std::vector<double> values);
double median(std::vector<double> values);

/// Process CPU (user + sys) in milliseconds and peak RSS in MiB.
double processCpuMs();
double peakRssMb();

/// One correct op of the timed loop.
struct OpRecord {
  std::string kind;  ///< "job", "write", "read", "list", "delete"
  double ms = 0;
  double cpu_ms = 0;  ///< process user+sys CPU while the op ran
};

/// Accumulates per-layer metric sums over the ops of the layer phase and
/// the notes explaining metrics that do not apply to a workload.
struct LayerMetrics {
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;

  void set(const std::string& name, double v) { values[name] = v; }
  void absent(const std::string& name, const std::string& why) {
    values[name] = 0;
    notes[name] = why;
  }
};

/// Everything one invocation measured.
struct RunResult {
  std::vector<double> setup_s;
  /// Untraced timed ops (the end-to-end window).
  std::vector<OpRecord> ops;
  /// Traced ops (trace runs only).
  std::vector<OpRecord> traced_ops;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Every self check passed (oracle liveness, trace shape).
  bool checks_ok = true;
  std::vector<std::string> errors;
  LayerMetrics layer;
  /// Workload-specific end-to-end figures under their own names
  /// (job_p50_ms, write_p50_us, ...), recorded in the results file.
  std::map<std::string, double> named;
  /// Chrome trace and critical-path report of the median traced op.
  std::string median_chrome_trace;
  std::string median_critical_path;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

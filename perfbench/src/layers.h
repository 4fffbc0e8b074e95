#pragma once

#include <map>
#include <string>

#include "bench.h"
#include "mh/net/network.h"

/// \file layers.h
/// Outside-the-engine probes: a snapshot of the fabric's traffic stats and
/// the flattened metrics tree, deltas between two snapshots, and the
/// per-layer metrics every workload derives from them.

namespace perfbench {

struct ClusterSnapshot {
  std::map<std::string, mh::net::TrafficStats> traffic;
  std::map<std::string, double> values;  ///< MetricsRegistry::flattenValues()
};

ClusterSnapshot takeSnapshot(const mh::net::Network& net);

/// after - before for one flattened key (0 when absent from both).
double delta(const ClusterSnapshot& before, const ClusterSnapshot& after,
             const std::string& key);

/// Sum of the values whose key starts with `prefix` and ends with `suffix`
/// (e.g. every "datanode." registry's "/bytes.written").
double sumValues(const ClusterSnapshot& snap, const std::string& prefix,
                 const std::string& suffix);

/// acc += after - before, for every flattened value and traffic tag.
void accumulateDelta(ClusterSnapshot& acc, const ClusterSnapshot& before,
                     const ClusterSnapshot& after);

/// NameNode client-protocol RPCs between two snapshots (DataNode chatter —
/// heartbeats, block reports — excluded).
double namenodeClientRpcs(const ClusterSnapshot& before,
                          const ClusterSnapshot& after);

/// net.* metrics plus the DataNode byte and edit-log metrics from `acc`,
/// the deltas accumulated over `ops` ops.
void addFabricAndStorageMetrics(LayerMetrics& layer,
                                const ClusterSnapshot& acc, double ops);

/// The traced half of a trace run. Checks every traced op's span tree
/// (connected, nothing dropped, critical-path phases summing exactly to the
/// root span), sums phase time, per-category self time (a span minus the
/// part its child spans cover) and codec work, and keeps the Chrome trace
/// and report of the first traced ops so the median one can be written out.
class TraceTally {
 public:
  /// Adds one op's trace from `tracer`. `job_root` is false for HDFS ops,
  /// whose root is the benchmark's own span rather than a JOB span.
  /// Returns "" or the check that failed.
  std::string add(const mh::TraceCollector& tracer, uint64_t trace_id,
                  bool job_root, double op_ms, const std::string& header);

  /// Sets the trace.* and common.codec.* metrics and the median kept op's
  /// artifacts on `out` (its ops and traced_ops must be complete).
  void finish(RunResult& out) const;

 private:
  struct Artifact {
    double ms = 0;
    std::string chrome_json;
    std::string report;
  };
  /// Artifacts kept per run; HDFS runs trace tens of thousands of ops.
  static constexpr size_t kMaxArtifacts = 256;

  std::map<std::string, double> phase_us_;
  std::map<std::string, double> self_us_;
  double total_us_ = 0;
  uint64_t dropped_ = 0;
  double encode_us_ = 0, encode_raw_ = 0, encode_out_ = 0;
  double decode_us_ = 0, decode_raw_ = 0;
  std::vector<Artifact> artifacts_;
};

}  // namespace perfbench

#pragma once

#include <memory>

#include "bench.h"
#include "layers.h"

/// \file workload.h
/// The hooks one workload implements; runWorkload() drives every workload
/// through the same phases, so set-up repetition, the untraced/traced split
/// and failure accounting are decided in one place.

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed work before the first set-up (the serial reference run).
  virtual void prepare() {}
  /// How many times set-up is repeated; its median is `setup_s`.
  virtual int setups() const = 0;
  /// Boots the cluster, generates and stages the inputs and runs the
  /// untimed warm-up op. `last` marks the set-up the timed loop will use.
  virtual void setUp(bool last) = 0;
  virtual void tearDown() = 0;
  virtual mh::TraceCollector& tracer() = 0;
  /// One closed-loop op: times it, checks its output, reads the ledgers;
  /// `traced` adds the trace checks, `layer` the per-layer probes. Records
  /// failures on `out`; may throw.
  virtual void runOneOp(bool traced, bool layer) = 0;
  /// Per-layer metrics from the probes of the `layer` ops.
  virtual void finishLayerMetrics() = 0;
  /// Workload-specific end-to-end names for the results file.
  virtual void recordNamedMetrics() = 0;

  RunResult out;
  TraceTally tally;
};

std::unique_ptr<Workload> makeMrWorkload(const Options& opt);
std::unique_ptr<Workload> makeDfsWorkload(const Options& opt);

}  // namespace perfbench

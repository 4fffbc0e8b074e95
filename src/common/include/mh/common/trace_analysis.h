#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mh/common/trace.h"

/// \file trace_analysis.h
/// Offline analysis over a `TraceCollector` snapshot: reconstruct one
/// job's span tree (by `trace_id`), check it is connected, walk the
/// critical path, and attribute every microsecond of the job's wall time
/// to a phase — map compute, spill, shuffle wait, merge, reduce, DFS I/O,
/// or scheduling gap — as an ASCII report (printed next to the JobHistory
/// Gantt) and as JSON.
///
/// The DAG is span parent/child edges plus the engine's happens-before
/// rules: every reduce needs every map's output before its merge can run,
/// so the path runs root -> last-finishing reduce -> (gate) last-finishing
/// map, and from there back through the map waves: each map's predecessor
/// is the latest-ending map that ended before it started. Un-spanned
/// stretches of the root are scheduling gaps, each cut at the JobTracker's
/// SUBMIT / TASK_REPORTED / TASK_ASSIGNED instants into steps labelled with
/// their cause (client-wait, report-wait, assign-wait, launch). Under
/// slowstart (mapred.reduce.slowstart.completed.maps < 1.0) the reduce span
/// overlaps the map phase; attribution clips it to the stretch after the
/// map gate, so the overlapped shuffle is never double-counted and the
/// phase totals still sum exactly to the job's wall clock.

namespace mh {

/// Phase attribution buckets, in display order.
inline constexpr const char* kTracePhases[] = {
    "map", "spill", "innode", "shuffle", "merge", "reduce", "dfs",
    "scheduling"};

/// Classifies a span name into a phase bucket; returns "" for container
/// or unclassified spans (JOB, COMPRESS, ...) whose time folds into the
/// enclosing phase.
std::string_view classifyTracePhase(std::string_view span_name);

/// Shape of one trace's event set, for connectivity assertions.
struct TraceTreeStats {
  size_t span_count = 0;
  size_t instant_count = 0;
  /// Events whose nonzero parent_span_id names no span in the set.
  size_t missing_parents = 0;
  /// Span ids with parent_span_id == 0 (should be exactly the JOB root).
  std::vector<uint64_t> root_span_ids;
  /// Distinct daemon kinds seen ("jobtracker", "tasktracker", ...):
  /// component with any ".<host>" suffix stripped.
  std::vector<std::string> daemon_kinds;

  bool connected() const {
    return missing_parents == 0 && root_span_ids.size() == 1;
  }
};

/// Stats for the events carrying `trace_id` in `events`.
TraceTreeStats analyzeTraceTree(const std::vector<TraceEvent>& events,
                                uint64_t trace_id);

/// One hop of the critical path (a span, or a gap between spans).
struct CriticalPathStep {
  std::string name;       ///< Span name, or "(scheduling gap)".
  std::string component;  ///< Owning swimlane ("" for gaps).
  int64_t start_us = 0;
  int64_t dur_us = 0;
  /// Gaps only: why the path waited. "client-wait" (job not yet queued),
  /// "report-wait" (an attempt ended, the JobTracker has not heard),
  /// "assign-wait" (the JobTracker knows, the next attempt is not handed
  /// out) or "launch" (assignment on its way to a task slot).
  std::string cause;
};

struct CriticalPathPhase {
  std::string phase;
  int64_t micros = 0;
};

struct CriticalPathReport {
  uint64_t trace_id = 0;
  bool found = false;     ///< False when no root span exists for the id.
  int64_t total_us = 0;   ///< Root (JOB) span duration.
  std::vector<CriticalPathStep> steps;    ///< Chronological.
  std::vector<CriticalPathPhase> phases;  ///< Sorted by micros, descending.

  /// Phase with the largest attribution ("" when not found).
  std::string dominantPhase() const;
  int64_t phaseMicros(std::string_view phase) const;
  /// Scheduling-gap time labelled with `cause` (see CriticalPathStep).
  int64_t gapMicros(std::string_view cause) const;

  /// Human-readable "where the time went" report.
  std::string renderAscii() const;
  /// The same report as a JSON object.
  std::string exportJson() const;
};

/// Computes the critical path + per-phase time attribution for the trace
/// `trace_id` within `events` (a `TraceCollector::snapshot()`).
CriticalPathReport computeCriticalPath(const std::vector<TraceEvent>& events,
                                       uint64_t trace_id);

}  // namespace mh

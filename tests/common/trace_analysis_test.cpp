#include "mh/common/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mh {
namespace {

TraceEvent makeSpan(uint64_t trace_id, uint64_t span_id, uint64_t parent,
                    std::string component, std::string name, int64_t ts_us,
                    int64_t dur_us) {
  TraceEvent e;
  e.component = std::move(component);
  e.name = std::move(name);
  e.span = true;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span_id = parent;
  return e;
}

TraceEvent makeInstant(uint64_t trace_id, uint64_t parent,
                       std::string component, std::string name,
                       int64_t ts_us) {
  TraceEvent e;
  e.component = std::move(component);
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.trace_id = trace_id;
  e.parent_span_id = parent;
  return e;
}

/// A small but complete job trace: JOB root [0, 100ms], one map
/// [10ms, 40ms], one reduce [50ms, 95ms] with shuffle [50, 70] and merge
/// [70, 75] children. Gaps: 0-10, 40-50, 95-100 (25 ms of scheduling).
std::vector<TraceEvent> syntheticJob(uint64_t trace_id) {
  std::vector<TraceEvent> events;
  events.push_back(
      makeSpan(trace_id, 2, 0, "jobtracker", "JOB job 1", 0, 100'000));
  events.push_back(makeSpan(trace_id, 3, 2, "tasktracker.node01", "MAP m0 a0",
                            10'000, 30'000));
  events.push_back(makeSpan(trace_id, 4, 2, "tasktracker.node02",
                            "REDUCE r0 a0", 50'000, 45'000));
  events.push_back(makeSpan(trace_id, 5, 4, "tasktracker.node02",
                            "SHUFFLE_FETCH r0 m0", 50'000, 20'000));
  events.push_back(makeSpan(trace_id, 6, 4, "tasktracker.node02", "MERGE r0",
                            70'000, 5'000));
  events.push_back(
      makeInstant(trace_id, 2, "jobtracker", "JOB_FINISH job 1", 100'000));
  return events;
}

TEST(TracePhaseTest, ClassifiesSpanNamesByPrefix) {
  EXPECT_EQ(classifyTracePhase("MAP m3 a0"), "map");
  EXPECT_EQ(classifyTracePhase("REDUCE r1 a2"), "reduce");
  EXPECT_EQ(classifyTracePhase("SHUFFLE_FETCH r0 m2"), "shuffle");
  EXPECT_EQ(classifyTracePhase("SORT_SPILL m0"), "spill");
  EXPECT_EQ(classifyTracePhase("MERGE r0"), "merge");
  EXPECT_EQ(classifyTracePhase("DFS_READ blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("DFS_WRITE /user/x"), "dfs");
  EXPECT_EQ(classifyTracePhase("READ_BLOCK blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("WRITE_BLOCK blk_7"), "dfs");
  EXPECT_EQ(classifyTracePhase("REPLICATE"), "dfs");
  EXPECT_EQ(classifyTracePhase("SHORT_CIRCUIT_READ blk_1"), "dfs");
  // Container / infrastructure spans are transparent.
  EXPECT_EQ(classifyTracePhase("JOB job 1"), "");
  EXPECT_EQ(classifyTracePhase("COMPRESS"), "");
  EXPECT_EQ(classifyTracePhase("DECOMPRESS"), "");
}

TEST(TraceTreeTest, ConnectedTreeHasOneRootAndNoMissingParents) {
  const auto events = syntheticJob(1);
  const TraceTreeStats stats = analyzeTraceTree(events, 1);
  EXPECT_EQ(stats.span_count, 5u);
  EXPECT_EQ(stats.instant_count, 1u);
  EXPECT_EQ(stats.missing_parents, 0u);
  ASSERT_EQ(stats.root_span_ids.size(), 1u);
  EXPECT_EQ(stats.root_span_ids[0], 2u);
  EXPECT_TRUE(stats.connected());
  ASSERT_EQ(stats.daemon_kinds.size(), 2u);
  EXPECT_EQ(stats.daemon_kinds[0], "jobtracker");
  EXPECT_EQ(stats.daemon_kinds[1], "tasktracker");
}

TEST(TraceTreeTest, DetectsMissingParentsAndIgnoresOtherTraces) {
  auto events = syntheticJob(1);
  // An orphan: parent span 99 was never recorded.
  events.push_back(makeSpan(1, 7, 99, "tasktracker.node01", "MAP m1 a0",
                            20'000, 1'000));
  // A different trace entirely: must not count toward trace 1.
  events.push_back(makeSpan(8, 10, 0, "jobtracker", "JOB job 2", 0, 50'000));
  const TraceTreeStats stats = analyzeTraceTree(events, 1);
  EXPECT_EQ(stats.span_count, 6u);
  EXPECT_EQ(stats.missing_parents, 1u);
  EXPECT_FALSE(stats.connected());
}

TEST(CriticalPathTest, AttributesEveryMicrosecondOfTheRoot) {
  const auto events = syntheticJob(1);
  const CriticalPathReport report = computeCriticalPath(events, 1);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.total_us, 100'000);

  // root, gap, map, gap, reduce, trailing gap.
  ASSERT_EQ(report.steps.size(), 6u);
  EXPECT_EQ(report.steps[0].name, "JOB job 1");
  EXPECT_EQ(report.steps[1].name, "(scheduling gap)");
  EXPECT_EQ(report.steps[1].dur_us, 10'000);
  EXPECT_EQ(report.steps[2].name, "MAP m0 a0");
  EXPECT_EQ(report.steps[3].dur_us, 10'000);
  EXPECT_EQ(report.steps[4].name, "REDUCE r0 a0");
  EXPECT_EQ(report.steps[5].dur_us, 5'000);

  EXPECT_EQ(report.phaseMicros("map"), 30'000);
  EXPECT_EQ(report.phaseMicros("shuffle"), 20'000);
  EXPECT_EQ(report.phaseMicros("merge"), 5'000);
  // Reduce keeps its duration minus its classified children (45 - 25 ms).
  EXPECT_EQ(report.phaseMicros("reduce"), 20'000);
  EXPECT_EQ(report.phaseMicros("scheduling"), 25'000);
  EXPECT_EQ(report.phaseMicros("spill"), 0);
  EXPECT_EQ(report.phaseMicros("dfs"), 0);
  EXPECT_EQ(report.dominantPhase(), "map");

  // The buckets partition the whole wall clock.
  int64_t sum = 0;
  for (const auto& p : report.phases) sum += p.micros;
  EXPECT_EQ(sum, report.total_us);
}

/// Two map waves on two slots, with the JobTracker's control-plane
/// instants. JOB [0, 100 ms]. Wave 1: m0 [5, 35] and m1 [6, 30]; wave 2:
/// m2 [40, 70], launched on m0's slot; one reduce [75, 95] with shuffle
/// [75, 85] and merge [85, 90] children.
std::vector<TraceEvent> twoWaveJob(uint64_t trace_id) {
  std::vector<TraceEvent> events;
  const auto span = [&](uint64_t id, uint64_t parent, const char* name,
                        int64_t from_ms, int64_t to_ms) {
    events.push_back(makeSpan(trace_id, id, parent, "tasktracker.node01",
                              name, from_ms * 1000, (to_ms - from_ms) * 1000));
  };
  const auto instant = [&](const char* name, int64_t at_ms) {
    events.push_back(
        makeInstant(trace_id, 2, "jobtracker", name, at_ms * 1000));
  };
  events.push_back(
      makeSpan(trace_id, 2, 0, "jobtracker", "JOB job 1", 0, 100'000));
  span(3, 2, "MAP m0 a0", 5, 35);
  span(4, 2, "MAP m1 a0", 6, 30);
  span(5, 2, "MAP m2 a0", 40, 70);
  span(6, 2, "REDUCE r0 a0", 75, 95);
  span(7, 6, "SHUFFLE_FETCH r0 a0", 75, 85);
  span(8, 6, "MERGE r0", 85, 90);
  instant("SUBMIT job 1", 1);
  instant("TASK_ASSIGNED m0 a0", 3);
  instant("TASK_ASSIGNED m1 a0", 4);
  instant("TASK_REPORTED m1 a0", 33);
  instant("TASK_REPORTED m0 a0", 37);
  instant("TASK_ASSIGNED m2 a0", 38);
  instant("TASK_REPORTED m2 a0", 72);
  instant("TASK_ASSIGNED r0 a0", 73);
  instant("TASK_REPORTED r0 a0", 98);
  return events;
}

TEST(CriticalPathTest, EarlierMapWavesCountAsMapTime) {
  const CriticalPathReport report = computeCriticalPath(twoWaveJob(1), 1);
  ASSERT_TRUE(report.found);
  // The walk back from the last map (m2) reaches m0, the latest map to end
  // before m2 started; m1 ended earlier and is off the path.
  std::vector<std::string> spans;
  for (const auto& step : report.steps) {
    if (step.cause.empty()) spans.push_back(step.name);
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"JOB job 1", "MAP m0 a0",
                                             "MAP m2 a0", "REDUCE r0 a0"}));
  // Both waves are map time; only the hand-offs remain scheduling.
  EXPECT_EQ(report.phaseMicros("map"), 60'000);
  EXPECT_EQ(report.phaseMicros("shuffle"), 10'000);
  EXPECT_EQ(report.phaseMicros("merge"), 5'000);
  EXPECT_EQ(report.phaseMicros("reduce"), 5'000);
  EXPECT_EQ(report.phaseMicros("scheduling"), 20'000);
  int64_t sum = 0;
  for (const auto& p : report.phases) sum += p.micros;
  EXPECT_EQ(sum, report.total_us);
}

TEST(CriticalPathTest, GapStepsAreLabelledWithTheirCause) {
  const CriticalPathReport report = computeCriticalPath(twoWaveJob(1), 1);
  ASSERT_TRUE(report.found);
  std::vector<std::pair<std::string, int64_t>> gaps;
  for (const auto& step : report.steps) {
    if (step.cause.empty()) continue;
    EXPECT_EQ(step.name, "(scheduling gap)");
    gaps.emplace_back(step.cause, step.dur_us);
  }
  const std::vector<std::pair<std::string, int64_t>> expected = {
      // Before m0: splits at submit, then the first beat, then the launch.
      {"client-wait", 1'000}, {"assign-wait", 2'000}, {"launch", 2'000},
      // m0 -> m2: m0's report, m2's assignment, m2's launch.
      {"report-wait", 2'000}, {"assign-wait", 1'000}, {"launch", 2'000},
      // m2 -> r0.
      {"report-wait", 2'000}, {"assign-wait", 1'000}, {"launch", 2'000},
      // After r0: the job ends when its report lands.
      {"report-wait", 5'000}};
  EXPECT_EQ(gaps, expected);
  EXPECT_EQ(report.gapMicros("client-wait") + report.gapMicros("report-wait") +
                report.gapMicros("assign-wait") + report.gapMicros("launch"),
            report.phaseMicros("scheduling"));
  EXPECT_NE(report.renderAscii().find("(scheduling gap) assign-wait"),
            std::string::npos);
  EXPECT_NE(report.exportJson().find("\"cause\":\"launch\""),
            std::string::npos);
}

TEST(CriticalPathTest, OutOfOrderInstantsStillPartitionTheGap) {
  // m2 assigned before the JobTracker heard m0 finish (a different slot
  // took it): the cuts stay ordered and the gap is not double-counted.
  auto events = twoWaveJob(1);
  for (auto& e : events) {
    if (e.name == "TASK_ASSIGNED m2 a0") e.ts_us = 36'000;
  }
  const CriticalPathReport report = computeCriticalPath(events, 1);
  EXPECT_EQ(report.phaseMicros("scheduling"), 20'000);
  int64_t gap_sum = 0;
  for (const auto& step : report.steps) {
    if (!step.cause.empty()) gap_sum += step.dur_us;
  }
  EXPECT_EQ(gap_sum, 20'000);
}

TEST(CriticalPathTest, OverlappingChildrenAreNotDoubleSubtracted) {
  std::vector<TraceEvent> events;
  events.push_back(makeSpan(1, 2, 0, "jobtracker", "JOB job 1", 0, 50'000));
  events.push_back(makeSpan(1, 3, 2, "tasktracker.node01", "REDUCE r0 a0", 0,
                            50'000));
  // Two parallel fetches covering [0, 30] between them (overlap 10-20).
  events.push_back(makeSpan(1, 4, 3, "tasktracker.node01",
                            "SHUFFLE_FETCH r0 m0", 0, 20'000));
  events.push_back(makeSpan(1, 5, 3, "tasktracker.node01",
                            "SHUFFLE_FETCH r0 m1", 10'000, 20'000));
  const CriticalPathReport report = computeCriticalPath(events, 1);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.phaseMicros("shuffle"), 40'000);  // both spans' own time
  // Reduce self time subtracts the UNION [0, 30] once, not 40 ms.
  EXPECT_EQ(report.phaseMicros("reduce"), 20'000);
}

TEST(CriticalPathTest, UnclassifiedSpansAreTransparent) {
  std::vector<TraceEvent> events;
  events.push_back(makeSpan(1, 2, 0, "jobtracker", "JOB job 1", 0, 40'000));
  events.push_back(
      makeSpan(1, 3, 2, "tasktracker.node01", "MAP m0 a0", 0, 40'000));
  // COMPRESS under MAP is unclassified; the DFS_WRITE under it must still
  // surface as dfs time, seen through the transparent layer.
  events.push_back(
      makeSpan(1, 4, 3, "tasktracker.node01", "COMPRESS", 10'000, 20'000));
  events.push_back(makeSpan(1, 5, 4, "dfsclient.node01", "DFS_WRITE /spill",
                            15'000, 5'000));
  const CriticalPathReport report = computeCriticalPath(events, 1);
  EXPECT_EQ(report.phaseMicros("dfs"), 5'000);
  EXPECT_EQ(report.phaseMicros("map"), 35'000);
}

TEST(CriticalPathTest, MissingRootReportsNotFound) {
  std::vector<TraceEvent> events;
  events.push_back(
      makeSpan(1, 3, 2, "tasktracker.node01", "MAP m0 a0", 0, 1'000));
  const CriticalPathReport report = computeCriticalPath(events, 7);
  EXPECT_FALSE(report.found);
  EXPECT_EQ(report.dominantPhase(), "");
  EXPECT_NE(report.renderAscii().find("no root span"), std::string::npos);
}

TEST(CriticalPathTest, RendersAsciiAndJson) {
  const CriticalPathReport report = computeCriticalPath(syntheticJob(9), 9);
  const std::string ascii = report.renderAscii();
  EXPECT_NE(ascii.find("critical path (trace 9, total 100.0 ms):"),
            std::string::npos);
  EXPECT_NE(ascii.find("where the time went:"), std::string::npos);
  EXPECT_NE(ascii.find("map"), std::string::npos);
  EXPECT_NE(ascii.find("(scheduling gap)"), std::string::npos);
  const std::string json = report.exportJson();
  EXPECT_NE(json.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"found\":true"), std::string::npos);
  EXPECT_NE(json.find("\"map\":30000"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\":["), std::string::npos);
}

}  // namespace
}  // namespace mh

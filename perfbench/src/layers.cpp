#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "mh/common/trace_analysis.h"

namespace perfbench {

namespace {

bool matches(const std::string& key, const std::string& prefix,
             const std::string& suffix) {
  return key.size() >= prefix.size() + suffix.size() &&
         key.compare(0, prefix.size(), prefix) == 0 &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Traffic tags the per-op byte metrics report.
const char* const kRemoteTags[] = {"rpc", "read", "pipeline", "replication",
                                   "shuffle"};
const char* const kLocalTags[] = {"read", "shuffle"};
/// RPC methods whose mean fabric latency is reported.
const char* const kRpcMethods[] = {"heartbeat",         "create",
                                   "addBlock",          "complete",
                                   "getBlockLocations", "writeBlock",
                                   "readBlock",         "getMapOutput"};

/// Span-name prefixes reported as self-time categories. categoryOf() takes
/// the longest matching prefix, so REDUCE_SHUFFLE_WAIT is not REDUCE, and
/// MERGE also covers the pipelined shuffle's MERGE_FOLD spans.
const std::vector<std::string> kSelfCategories = {
    "MAP",        "SORT_SPILL", "SHUFFLE_FETCH", "REDUCE_SHUFFLE_WAIT",
    "MERGE",      "REDUCE",     "DFS_READ",      "DFS_WRITE",
    "READ_BLOCK", "WRITE_BLOCK", "COMPRESS",     "DECOMPRESS"};

std::string categoryOf(const std::string& name) {
  std::string best;
  for (const auto& c : kSelfCategories) {
    if (name.compare(0, c.size(), c) == 0 && c.size() > best.size()) best = c;
  }
  return best;
}

/// Total length of the union of [start, end) intervals.
int64_t unionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Self time of every categorized span of one trace, summed per category;
/// categories seen only as instant events get an "instant:" marker.
std::map<std::string, double> selfMicrosByCategory(
    const std::vector<mh::TraceEvent>& events, uint64_t trace_id) {
  std::unordered_map<uint64_t, std::vector<const mh::TraceEvent*>> children;
  for (const auto& e : events) {
    if (e.trace_id == trace_id && e.span && e.parent_span_id != 0) {
      children[e.parent_span_id].push_back(&e);
    }
  }
  std::map<std::string, double> self;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    const std::string category = categoryOf(e.name);
    if (category.empty()) continue;
    if (!e.span) {
      self.emplace("instant:" + category, 0);  // seen, but has no duration
      continue;
    }
    const int64_t start = e.ts_us, end = e.ts_us + e.dur_us;
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (const auto it = children.find(e.span_id); it != children.end()) {
      for (const mh::TraceEvent* c : it->second) {
        covered.emplace_back(std::max(start, c->ts_us),
                             std::min(end, c->ts_us + c->dur_us));
      }
    }
    self[category] += static_cast<double>(e.dur_us - unionLength(covered));
  }
  return self;
}

/// Every event of one trace, in start order, with offsets from the first:
/// the per-op view for traces the critical-path walk does not model.
std::string spanListing(const std::vector<mh::TraceEvent>& events,
                        uint64_t trace_id) {
  std::vector<const mh::TraceEvent*> mine;
  for (const auto& e : events) {
    if (e.trace_id == trace_id) mine.push_back(&e);
  }
  std::sort(mine.begin(), mine.end(), [](const auto* a, const auto* b) {
    return a->ts_us < b->ts_us;
  });
  std::string out;
  for (const auto* e : mine) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-22s %-34s @ %8lld us  + %8lld us\n",
                  e->component.c_str(), e->name.c_str(),
                  static_cast<long long>(e->ts_us - mine.front()->ts_us),
                  static_cast<long long>(e->dur_us));
    out += line;
  }
  return out;
}

double argValue(const mh::TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return std::stod(v);
  }
  return 0;
}

}  // namespace

ClusterSnapshot takeSnapshot(const mh::net::Network& net) {
  ClusterSnapshot snap;
  snap.traffic = net.stats();
  for (auto& [key, value] : net.metrics().flattenValues()) {
    snap.values[key] = value;
  }
  return snap;
}

double delta(const ClusterSnapshot& before, const ClusterSnapshot& after,
             const std::string& key) {
  const auto b = before.values.find(key);
  const auto a = after.values.find(key);
  return (a == after.values.end() ? 0 : a->second) -
         (b == before.values.end() ? 0 : b->second);
}

double sumValues(const ClusterSnapshot& snap, const std::string& prefix,
                 const std::string& suffix) {
  double sum = 0;
  for (const auto& [key, value] : snap.values) {
    if (matches(key, prefix, suffix)) sum += value;
  }
  return sum;
}

void accumulateDelta(ClusterSnapshot& acc, const ClusterSnapshot& before,
                     const ClusterSnapshot& after) {
  for (const auto& [key, value] : after.values) {
    const auto it = before.values.find(key);
    acc.values[key] += value - (it == before.values.end() ? 0 : it->second);
  }
  for (const auto& [tag, t] : after.traffic) {
    const auto it = before.traffic.find(tag);
    const bool had = it != before.traffic.end();
    auto& a = acc.traffic[tag];
    a.remote_bytes += t.remote_bytes - (had ? it->second.remote_bytes : 0);
    a.local_bytes += t.local_bytes - (had ? it->second.local_bytes : 0);
    a.messages += t.messages - (had ? it->second.messages : 0);
  }
}

double namenodeClientRpcs(const ClusterSnapshot& before,
                          const ClusterSnapshot& after) {
  double rpcs = sumValues(after, "namenode/ops.", "") -
                sumValues(before, "namenode/ops.", "");
  for (const char* dn : {"heartbeat", "blockReport", "blockReceived",
                         "registerDataNode"}) {
    rpcs -= delta(before, after, std::string("namenode/ops.") + dn);
  }
  return rpcs;
}

void addFabricAndStorageMetrics(LayerMetrics& layer,
                                const ClusterSnapshot& acc, double ops) {
  const auto value = [&](const std::string& key) {
    const auto it = acc.values.find(key);
    return it == acc.values.end() ? 0.0 : it->second;
  };
  layer.set("net.rpc_calls_per_op",
            ratio(sumValues(acc, "network/rpc.", ".micros.count"), ops));
  layer.set("net.heartbeat_calls_per_op",
            ratio(value("network/rpc.heartbeat.micros.count"), ops));
  const auto traffic = [&](const char* tag, bool remote) -> double {
    const auto it = acc.traffic.find(tag);
    if (it == acc.traffic.end()) return 0;
    return static_cast<double>(remote ? it->second.remote_bytes
                                      : it->second.local_bytes);
  };
  for (const char* tag : kRemoteTags) {
    layer.set(std::string("net.remote_bytes_per_op.") + tag,
              ratio(traffic(tag, true), ops));
  }
  for (const char* tag : kLocalTags) {
    layer.set(std::string("net.local_bytes_per_op.") + tag,
              ratio(traffic(tag, false), ops));
  }
  for (const char* method : kRpcMethods) {
    const std::string base = std::string("network/rpc.") + method + ".micros";
    const double calls = value(base + ".count");
    const std::string name = std::string("net.rpc_mean_us.") + method;
    if (calls > 0) {
      layer.set(name, value(base + ".sum_us") / calls);
    } else {
      layer.absent(name, "no such call during this workload's ops");
    }
  }
  layer.set("hdfs.datanode.bytes_written_per_op",
            ratio(sumValues(acc, "datanode.", "/bytes.written"), ops));
  layer.set("hdfs.datanode.bytes_read_per_op",
            ratio(sumValues(acc, "datanode.", "/bytes.read"), ops));
  const double syncs = value("namenode/edits.sync.micros.count");
  if (syncs > 0) {
    layer.set("hdfs.edit_log.sync_us_mean",
              value("namenode/edits.sync.micros.sum_us") / syncs);
  } else {
    layer.absent("hdfs.edit_log.sync_us_mean",
                 "NameNode not journaling (no dfs.namenode.name.dir) on this "
                 "workload");
  }
}

std::string TraceTally::add(const mh::TraceCollector& tracer,
                            uint64_t trace_id, bool job_root, double op_ms,
                            const std::string& header) {
  const std::vector<mh::TraceEvent> events = tracer.snapshot();
  const uint64_t dropped = tracer.droppedEvents();
  dropped_ += dropped;
  if (trace_id == 0) return "op carries no trace id";
  if (dropped != 0) {
    return "trace ring dropped " + std::to_string(dropped) + " events";
  }
  const mh::TraceTreeStats tree = mh::analyzeTraceTree(events, trace_id);
  if (!tree.connected()) {
    return "trace tree not connected (" +
           std::to_string(tree.missing_parents) + " missing parents, " +
           std::to_string(tree.root_span_ids.size()) + " roots)";
  }
  const mh::CriticalPathReport report =
      mh::computeCriticalPath(events, trace_id);
  if (!report.found) return "critical path found no root span";
  int64_t phase_sum = 0;
  for (const auto& p : report.phases) phase_sum += p.micros;
  if (phase_sum != report.total_us) {
    return "phases sum to " + std::to_string(phase_sum) + "us, root span is " +
           std::to_string(report.total_us) + "us";
  }
  total_us_ += static_cast<double>(report.total_us);
  std::string where;  // the op's attribution, for the report artifact
  if (job_root) {
    for (const auto& p : report.phases) {
      phase_us_[p.phase] += static_cast<double>(p.micros);
    }
    where = report.renderAscii();
  } else {
    // The analyzer walks the map -> reduce gate of a JOB tree; under a
    // plain HDFS op it sees only one gap. Split the op root instead into
    // the union of its classified descendants (DFS_READ, DFS_WRITE, ...)
    // and the rest, which keeps the gap bucket ("scheduling"): NameNode
    // RPCs and client code outside any span.
    const mh::TraceEvent* root = nullptr;
    for (const auto& e : events) {
      if (e.trace_id == trace_id && e.span && e.parent_span_id == 0) root = &e;
    }
    std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> by_phase;
    for (const auto& e : events) {
      if (e.trace_id != trace_id || !e.span) continue;
      const std::string phase(mh::classifyTracePhase(e.name));
      if (phase.empty()) continue;
      by_phase[phase].emplace_back(
          std::max(e.ts_us, root->ts_us),
          std::min(e.ts_us + e.dur_us, root->ts_us + root->dur_us));
    }
    std::map<std::string, int64_t> op_us;
    std::vector<std::pair<int64_t, int64_t>> all;
    for (auto& [phase, intervals] : by_phase) {
      op_us[phase] = unionLength(intervals);
      all.insert(all.end(), intervals.begin(), intervals.end());
    }
    op_us["scheduling"] = report.total_us - unionLength(all);
    where = "where the time went (" + std::to_string(report.total_us) +
            " us; scheduling = outside any classified span):\n";
    for (const auto& [phase, us] : op_us) {
      phase_us_[phase] += static_cast<double>(us);
      where += "  " + phase + " " + std::to_string(us) + " us\n";
    }
  }
  for (const auto& [category, us] : selfMicrosByCategory(events, trace_id)) {
    self_us_[category] += us;
  }
  for (const auto& e : events) {
    if (e.trace_id != trace_id || !e.span) continue;
    if (e.name == "COMPRESS") {
      encode_us_ += static_cast<double>(e.dur_us);
      encode_raw_ += argValue(e, "raw_bytes");
      encode_out_ += argValue(e, "encoded_bytes");
    } else if (e.name == "DECOMPRESS") {
      decode_us_ += static_cast<double>(e.dur_us);
      decode_raw_ += argValue(e, "raw_bytes");
    }
  }
  if (artifacts_.size() < kMaxArtifacts) {
    artifacts_.push_back(
        {op_ms, tracer.exportChromeJson(),
         header + (job_root ? "" : spanListing(events, trace_id)) + where});
  }
  return "";
}

void TraceTally::finish(RunResult& out) const {
  LayerMetrics& layer = out.layer;
  for (const char* phase : mh::kTracePhases) {
    const auto it = phase_us_.find(phase);
    layer.set(std::string("trace.phase_share.") + phase,
              it == phase_us_.end() ? 0 : ratio(it->second, total_us_));
  }
  const double ops = static_cast<double>(out.traced_ops.size());
  for (const auto& category : kSelfCategories) {
    const auto it = self_us_.find(category);
    const std::string name = "trace.self_ms_per_op." + category;
    if (it == self_us_.end() && self_us_.count("instant:" + category) != 0) {
      layer.absent(name, category +
                             " is recorded as an instant event, not a span: "
                             "it has no duration");
    } else if (it == self_us_.end()) {
      layer.absent(name, "no " + category + " span on this workload");
    } else {
      layer.set(name, ratio(it->second / 1e3, ops));
    }
  }
  std::vector<double> untraced, traced;
  for (const auto& o : out.ops) untraced.push_back(o.ms);
  for (const auto& o : out.traced_ops) traced.push_back(o.ms);
  layer.set("trace.overhead_ratio", ratio(median(traced), median(untraced)));
  layer.set("trace.dropped_events", static_cast<double>(dropped_));

  // Codec cost per raw MiB, from the COMPRESS/DECOMPRESS spans.
  constexpr double kMiB = 1024.0 * 1024.0;
  if (encode_raw_ <= 0 && decode_raw_ <= 0) {
    for (const char* m : {"common.codec.encode_us_per_mb",
                          "common.codec.decode_us_per_mb",
                          "common.codec.ratio"}) {
      layer.absent(m, "no COMPRESS/DECOMPRESS span: compression is off");
    }
  } else {
    layer.set("common.codec.encode_us_per_mb",
              ratio(encode_us_, encode_raw_ / kMiB));
    layer.set("common.codec.decode_us_per_mb",
              ratio(decode_us_, decode_raw_ / kMiB));
    layer.set("common.codec.ratio", ratio(encode_raw_, encode_out_));
  }

  if (!artifacts_.empty()) {
    std::vector<const Artifact*> sorted;
    for (const auto& a : artifacts_) sorted.push_back(&a);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->ms < b->ms; });
    out.median_chrome_trace = sorted[sorted.size() / 2]->chrome_json;
    out.median_critical_path = sorted[sorted.size() / 2]->report;
  }
}

}  // namespace perfbench

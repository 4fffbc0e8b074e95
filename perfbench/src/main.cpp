// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --results <dir> --work <dir> [--corrupt-output]
//
// Workloads: wordcount-small, sort-large, sort-lz, dfs-mixed. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics (an untraced half for counters,
// history and ledgers, then a traced half for phase shares and self times).
// Either way a full results file, plus for traced runs the Chrome trace and
// critical-path report of the median traced op, land in --results.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "workload.h"
#include "mh/common/error.h"
#include "mh/common/log.h"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"wordcount-small", "sort-large", "sort-lz",
                                  "dfs-mixed"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wordcount-small|sort-large|sort-lz|dfs-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> --results <dir> --work <dir> "
               "[--corrupt-output]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-output") {
      opt.corrupt_output = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--results") opt.results_dir = value;
    else if (flag == "--work") opt.work_dir = value;
    else usage("unknown flag " + flag);
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) usage("unknown workload '" + opt.workload + "'");
  if (opt.results_dir.empty() || opt.work_dir.empty()) {
    usage("--results and --work are required");
  }
  return opt;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

using Fields = std::vector<std::pair<std::string, std::string>>;

/// {"key": value, ...} from already-encoded values.
std::string jsonObject(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", " : "") + jsonString(fields[i].first) + ": " +
           fields[i].second;
  }
  return out + "}";
}

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  Fields fields;
  for (const auto& m : metrics) {
    fields.emplace_back(m.name, jsonObject({{"value", jsonNumber(m.value)},
                                            {"unit", jsonString(m.unit)}}));
  }
  return jsonObject(fields);
}

/// The end-to-end metrics, identical in name and unit on every workload.
std::vector<Metric> endToEnd(const RunResult& r) {
  std::vector<double> ms, cpu;
  for (const auto& o : r.ops) {
    ms.push_back(o.ms);
    cpu.push_back(o.cpu_ms);
  }
  const LatencySummary s = summarize(ms);
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"op_p50_ms", s.p50, "ms"},
      {"op_tail_ms", s.tail, "ms"},
      {"cpu_ms_per_op", median(cpu), "ms"},
  };
}

std::string unitOf(const std::string& name) {
  const auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  const auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (has("_us_per_mb")) return "us/MiB";
  if (has("rpc_mean_us") || ends("_us") || ends("_us_mean")) return "us";
  if (has("_mb_per_s")) return "MiB/s";
  if (ends("_mb")) return "MiB";
  if (has("_ms") || has("self_ms_per_op")) return "ms";
  if (has("bytes")) return "bytes";
  if (has("ratio") || has("phase_share") || has("_over_")) return "ratio";
  return "count";
}

/// The timed loop: closed-loop ops until `seconds` have passed. An op that
/// throws is a failed op, never a dropped one.
void loop(Workload& w, double seconds, bool traced, bool layer) {
  w.tracer().setEnabled(traced);
  Timer window;
  while (window.seconds() < seconds) {
    ++w.out.attempted;
    try {
      w.runOneOp(traced, layer);
    } catch (const std::exception& e) {
      w.out.fail(std::string("op threw: ") + e.what());
    }
  }
  w.tracer().setEnabled(false);
}

/// Every workload's phases: set-up repeated (median = setup_s), then the
/// whole window untraced, or for a trace run an untraced half that feeds the
/// per-layer probes and a traced half that feeds the trace metrics.
RunResult runWorkload(Workload& w, const Options& opt) {
  w.prepare();
  for (int i = 0; i < w.setups(); ++i) {
    const bool last = i == w.setups() - 1;
    Timer watch;
    w.setUp(last);
    w.out.setup_s.push_back(watch.seconds());
    if (!last) w.tearDown();
  }
  if (!opt.trace) {
    loop(w, opt.seconds, /*traced=*/false, /*layer=*/false);
  } else {
    loop(w, opt.seconds / 2, /*traced=*/false, /*layer=*/true);
    loop(w, opt.seconds / 2, /*traced=*/true, /*layer=*/false);
    w.tally.finish(w.out);
    w.finishLayerMetrics();
  }
  w.recordNamedMetrics();
  w.tearDown();
  return std::move(w.out);
}

void writeFile(const std::filesystem::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

}  // namespace

int main(int argc, char** argv) {
  mh::setLogLevel(mh::LogLevel::kError);
  const Options opt = parse(argc, argv);
  namespace fs = std::filesystem;
  fs::create_directories(opt.results_dir);
  fs::create_directories(opt.work_dir);

  RunResult r;
  try {
    const auto workload = opt.workload == "dfs-mixed" ? makeDfsWorkload(opt)
                                                      : makeMrWorkload(opt);
    r = runWorkload(*workload, opt);
  } catch (const std::exception& e) {
    // A crashed run is a failed run, never a dropped one.
    r.attempted = std::max<int64_t>(r.attempted, 1);
    r.fail(std::string("run crashed: ") + e.what());
  }

  const bool correct = r.failed == 0 && r.checks_ok && !r.ops.empty();
  // Peak RSS is a per-layer (process) figure, not a gated end-to-end one:
  // on dfs-mixed it grows with the op count and swings by a third between
  // runs of one seed (allocator arenas), so no 25% bound could hold it.
  r.named["peak_rss_mb"] = peakRssMb();
  if (opt.trace) r.layer.set("process.peak_rss_mb", r.named["peak_rss_mb"]);
  std::vector<Metric> e2e = endToEnd(r);
  std::vector<Metric> layer;
  for (const auto& [name, value] : r.layer.values) {
    layer.push_back({name, value, unitOf(name)});
  }

  const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) +
                           (opt.trace ? "-trace" : "");
  Fields named, absent;
  for (const auto& [name, value] : r.named) {
    named.emplace_back(name, jsonNumber(value));
  }
  for (const auto& [name, why] : r.layer.notes) {
    absent.emplace_back(name, jsonString(why));
  }
  // Per-op latencies for job workloads (HDFS runs have too many to list).
  std::vector<std::string> op_ms, setup_s, errors;
  for (const auto& o : r.ops) {
    if (r.ops.size() <= 1000) op_ms.push_back(jsonNumber(o.ms));
  }
  for (const double s : r.setup_s) setup_s.push_back(jsonNumber(s));
  for (const auto& e : r.errors) errors.push_back(jsonString(e));
  const double error_rate =
      r.attempted > 0
          ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
          : 1.0;
  const std::string details = jsonObject({
      {"workload", jsonString(opt.workload)},
      {"seed", std::to_string(opt.seed)},
      {"trace", opt.trace ? "true" : "false"},
      {"correct", correct ? "true" : "false"},
      {"attempted", std::to_string(r.attempted)},
      {"failed", std::to_string(r.failed)},
      {"error_rate", jsonNumber(error_rate)},
      {"end_to_end", metricsJson(e2e)},
      {"named", jsonObject(named)},
      {"op_ms", jsonArray(op_ms)},
      {"setup_s_each", jsonArray(setup_s)},
      {"per_layer", metricsJson(layer)},
      {"absent", jsonObject(absent)},
      {"errors", jsonArray(errors)},
  }) + "\n";
  writeFile(fs::path(opt.results_dir) / (stem + ".json"), details);
  if (!r.median_chrome_trace.empty()) {
    writeFile(fs::path(opt.results_dir) / (stem + ".chrome.json"),
              r.median_chrome_trace);
    writeFile(fs::path(opt.results_dir) / (stem + ".critical_path.txt"),
              r.median_critical_path);
  }
  for (const auto& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  const std::string result = jsonObject({
      {"correct", correct ? "true" : "false"},
      {"attempted", std::to_string(std::max<int64_t>(r.attempted, 1))},
      {"failed", std::to_string(r.failed)},
      {"metrics", metricsJson(opt.trace ? layer : e2e)},
  });
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

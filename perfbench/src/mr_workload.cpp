// MapReduce workloads: wordcount-small, sort-large and sort-lz on a 3-node
// MiniMrCluster. One op is one whole job, timed from JobTracker::submit to
// the return of JobTracker::wait; jobs run back to back and the output
// directory is deleted between them. Every job's part files are compared
// byte for byte with a LocalJobRunner run of the same JobSpec.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "workload.h"
#include "mh/apps/wordcount.h"
#include "mh/common/crc32.h"
#include "mh/common/rng.h"
#include "mh/data/text_corpus.h"
#include "mh/mr/local_runner.h"
#include "mh/mr/mini_mr_cluster.h"

namespace perfbench {

namespace {

using namespace mh;

constexpr uint64_t kMiB = 1024 * 1024;

struct Shape {
  bool sort = false;
  bool compress = false;
  uint64_t block_size = 0;
  uint64_t input_bytes = 0;
  uint32_t reducers = 0;
  uint16_t replication = 2;
};

Shape shapeFor(const std::string& workload) {
  if (workload == "wordcount-small") {
    return {.block_size = 64 * 1024, .input_bytes = kMiB, .reducers = 2};
  }
  const bool lz = workload == "sort-lz";
  return {.sort = true, .compress = lz, .block_size = 24 * kMiB,
          .input_bytes = 72 * kMiB, .reducers = 3};
}

/// TeraGen-like rows of exactly 100 bytes: a 10-byte random key, a tab, a
/// 10-digit row number, 78 bytes of run-length filler, a newline.
Bytes sortRows(uint64_t bytes, uint64_t seed) {
  static const char kAlnum[] =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
  Rng rng(seed);
  Bytes out;
  out.reserve(bytes);
  char row[100];
  for (uint64_t id = 0; out.size() + sizeof(row) <= bytes; ++id) {
    for (int i = 0; i < 10; ++i) row[i] = kAlnum[rng.uniform(62)];
    row[10] = '\t';
    std::snprintf(row + 11, 11, "%010llu",
                  static_cast<unsigned long long>(id % 10'000'000'000ull));
    for (int g = 0; g < 6; ++g) {
      const char letter = static_cast<char>('A' + rng.uniform(26));
      std::fill_n(row + 21 + g * 13, 13, letter);
    }
    row[99] = '\n';
    out.append(row, sizeof(row));
  }
  return out;
}

mr::JobSpec makeSpec(const Shape& shape, const std::string& output,
                     bool compress) {
  if (!shape.sort) {
    return apps::makeWordCountJob({"/in"}, output, /*with_combiner=*/true,
                                  shape.reducers);
  }
  mr::JobSpec spec;
  spec.name = "sort";
  spec.input_paths = {"/in"};
  spec.output_dir = output;
  spec.num_reducers = shape.reducers;
  spec.mapper = mr::mapperFromLambda(
      [](std::string_view, std::string_view line, mr::TaskContext& ctx) {
        const size_t tab = line.find('\t');
        ctx.emit(Bytes(line.substr(0, tab)),
                 tab == std::string_view::npos ? Bytes()
                                               : Bytes(line.substr(tab + 1)));
      });
  spec.reducer = mr::reducerFromLambda([](std::string_view key,
                                          mr::ValuesIterator& values,
                                          mr::TaskContext& ctx) {
    while (auto v = values.next()) ctx.emit(Bytes(key), Bytes(*v));
  });
  if (compress) {
    spec.conf.set("mapred.map.output.compression.codec", "mh-lz");
    spec.conf.set("mapred.shuffle.compression", "mh-lz");
  }
  return spec;
}

/// In-memory FileSystemView for the serial reference run: no disk I/O, and
/// splits cut at the same boundaries as the cluster's HDFS blocks.
class MemFs final : public mr::FileSystemView {
 public:
  explicit MemFs(uint64_t split_size) : split_size_(split_size) {}

  std::vector<std::string> listFiles(const std::string& path) override {
    if (files_.count(path) != 0) return {path};
    std::vector<std::string> out;
    for (const auto& [name, data] : files_) {
      if (name.compare(0, path.size() + 1, path + "/") == 0) {
        out.push_back(name);
      }
    }
    return out;
  }
  uint64_t fileLength(const std::string& path) override {
    return files_.at(path).size();
  }
  Bytes readRange(const std::string& path, uint64_t offset,
                  uint64_t length) override {
    const Bytes& data = files_.at(path);
    if (offset >= data.size()) return {};
    return data.substr(offset, length);
  }
  void writeFile(const std::string& path, std::string_view data) override {
    files_[path] = Bytes(data);
  }
  bool exists(const std::string& path) override {
    return files_.count(path) != 0 || !listFiles(path).empty();
  }
  void mkdirs(const std::string&) override {}
  void remove(const std::string& path) override {
    for (const auto& name : listFiles(path)) files_.erase(name);
  }
  void rename(const std::string& from, const std::string& to) override {
    for (const auto& name : listFiles(from)) {
      auto node = files_.extract(name);
      node.key() = to + name.substr(from.size());
      files_.insert(std::move(node));
    }
  }
  std::vector<mr::InputSplit> splitsForFile(const std::string& path) override {
    std::vector<mr::InputSplit> splits;
    const uint64_t len = fileLength(path);
    for (uint64_t off = 0; off < len; off += split_size_) {
      splits.push_back({path, off, std::min(split_size_, len - off), {}});
    }
    return splits;
  }

 private:
  uint64_t split_size_;
  std::map<std::string, Bytes> files_;
};

std::string baseName(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

bool isPart(const std::string& path) {
  return baseName(path).rfind("part-", 0) == 0;
}

/// Fingerprint of one part file: length, CRC-32C (catches every single
/// flipped byte) and 64-bit FNV-1a. Keeping fingerprints instead of the
/// reference bytes keeps a second copy of the output out of memory.
struct Digest {
  uint64_t size = 0;
  uint32_t crc = 0;
  uint64_t fnv = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest(std::string_view data) {
  // FNV-1a over 8-byte words (then the tail bytes): fast enough to run on
  // every job's full output.
  uint64_t h = 1469598103934665603ull;
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    h = (h ^ word) * 1099511628211ull;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ static_cast<uint8_t>(data[i])) * 1099511628211ull;
  }
  return {data.size(), crc32c(data), h};
}

using Parts = std::map<std::string, Digest>;

/// Empty when `actual` matches `expected` part for part, else the reason.
std::string compareParts(const Parts& expected, const Parts& actual) {
  if (expected.size() != actual.size()) {
    return "expected " + std::to_string(expected.size()) + " part files, got " +
           std::to_string(actual.size());
  }
  for (const auto& [name, d] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) return "missing " + name;
    if (!(it->second == d)) return name + " differs from the serial reference";
  }
  return "";
}

/// Per-job figures read from outside the engine, kept for the layer phase.
struct JobFacts {
  double ms = 0;
  double submit_ms = 0;
  mr::JobResult result;
};

/// Gap between an attempt freeing a slot and the next launch of the same
/// kind on that tracker, summed over every freed slot while a task of that
/// kind was still waiting for its first launch anywhere.
double slotIdleMs(const mr::JobHistory& history) {
  double idle = 0;
  for (const bool is_map : {true, false}) {
    std::map<uint32_t, int64_t> first_launch;
    for (const auto& a : history.attempts) {
      if (a.is_map != is_map) continue;
      auto [it, fresh] = first_launch.emplace(a.task_index, a.start_ms);
      if (!fresh) it->second = std::min(it->second, a.start_ms);
    }
    for (const auto& freed : history.attempts) {
      if (freed.is_map != is_map || !freed.finished) continue;
      const int64_t f = freed.finish_ms;
      const bool pending = std::any_of(
          first_launch.begin(), first_launch.end(),
          [f](const auto& kv) { return kv.second > f; });
      if (!pending) continue;
      int64_t next = -1;
      for (const auto& a : history.attempts) {
        if (a.is_map == is_map && a.tracker == freed.tracker &&
            a.start_ms >= f && (next < 0 || a.start_ms < next)) {
          next = a.start_ms;
        }
      }
      if (next >= 0) idle += static_cast<double>(next - f);
    }
  }
  return idle;
}

double counter(const mr::JobResult& r, const char* group, const char* name) {
  return static_cast<double>(r.counters.value(group, name));
}

class MrBench final : public Workload {
 public:
  explicit MrBench(const Options& opt)
      : opt_(opt), shape_(shapeFor(opt.workload)) {}

  int setups() const override { return 3; }
  void tearDown() override { cluster_.reset(); }
  TraceCollector& tracer() override { return cluster_->tracer(); }

  /// On the last set-up the staging write is probed for NameNode RPCs.
  void setUp(bool last) override {
    Config conf;
    conf.setInt("dfs.replication", shape_.replication);
    conf.setInt("dfs.blocksize", static_cast<int64_t>(shape_.block_size));
    cluster_ = std::make_unique<mr::MiniMrCluster>(
        mr::MiniMrOptions{.num_nodes = 3, .conf = conf});
    Bytes input = generateInput();
    auto client = cluster_->client();
    const auto before = takeSnapshot(*cluster_->network());
    Timer stage;
    client.writeFile(inputPath(), input);
    const double stage_s = stage.seconds();
    if (last) {
      const auto after = takeSnapshot(*cluster_->network());
      stage_mb_per_s_ = static_cast<double>(input.size()) / kMiB / stage_s;
      nn_rpcs_per_write_ = namenodeClientRpcs(before, after);
    }
    input.clear();
    input.shrink_to_fit();
    // Untimed-op warm-up: the first job pays lazy set-up the timed ones
    // must not see.
    const auto warm =
        cluster_->runJob(makeSpec(shape_, "/out", shape_.compress));
    if (!warm.succeeded()) out.fail("warm-up job failed: " + warm.error);
    client.remove("/out", true);
  }

  /// The serial LocalJobRunner run of the same JobSpec (for sort-lz, of the
  /// uncompressed spec: compression must be transparent). It runs before
  /// any cluster boots, so its memory is gone by then.
  void prepare() override {
    MemFs fs(shape_.block_size);
    fs.writeFile(inputPath(), generateInput());
    mr::LocalJobRunner runner(fs);
    Timer watch;
    const auto result = runner.run(makeSpec(shape_, "/ref", false));
    local_ms_ = watch.ms();
    if (!result.succeeded()) {
      out.fail("serial reference failed: " + result.error);
      return;
    }
    Bytes victim;
    for (const auto& path : fs.listFiles("/ref")) {
      if (!isPart(path)) continue;
      Bytes data = fs.readRange(path, 0, UINT64_MAX);
      reference_[baseName(path)] = digest(data);
      if (victim.empty()) victim = std::move(data);
    }
    // The oracle must notice a single flipped byte in any part file.
    if (victim.empty()) {
      out.checks_ok = false;
      out.errors.push_back("serial reference produced no part bytes");
      return;
    }
    Parts flipped = reference_;
    victim[victim.size() / 2] ^= 0x01;
    flipped.begin()->second = digest(victim);
    if (compareParts(reference_, flipped).empty()) {
      out.checks_ok = false;
      out.errors.push_back("oracle missed a flipped byte");
    }
  }

  /// One timed job, then (untimed) its oracle check, the ledgers and, when
  /// traced, the trace checks.
  void runOneOp(bool traced, bool layer) override {
    auto& net = *cluster_->network();
    auto& jt = cluster_->jobTracker();
    auto client = cluster_->client();
    if (traced) tracer().clear();
    ClusterSnapshot before;
    if (layer) before = takeSnapshot(net);

    const double cpu0 = processCpuMs();
    Timer op;
    const mr::JobId id = jt.submit(makeSpec(shape_, "/out", shape_.compress));
    const double submit_ms = op.ms();
    mr::JobResult result = jt.wait(id);
    const double ms = op.ms();
    const double cpu = processCpuMs() - cpu0;

    bool ok = result.succeeded();
    if (!ok) out.fail("job failed: " + result.error);
    if (layer) accumulateDelta(acc_, before, takeSnapshot(net));
    if (ok) ok = checkOutput(client, layer);
    readLedgers(client);
    if (traced && ok) {
      const std::string err = tally.add(tracer(), result.trace_id,
                                         /*job_root=*/true, ms, "");
      if (!err.empty()) {
        out.fail("trace check: " + err);
        ok = false;
      }
    }
    client.remove("/out", true);
    if (!ok) return;
    (traced ? out.traced_ops : out.ops).push_back({"job", ms, cpu});
    if (layer) jobs_.push_back({ms, submit_ms, std::move(result)});
  }

  void finishLayerMetrics() override {
    LayerMetrics& l = out.layer;
    const double jobs = static_cast<double>(jobs_.size());
    addFabricAndStorageMetrics(l, acc_, jobs);
    l.set("hdfs.client.stage_mb_per_s", stage_mb_per_s_);
    l.set("hdfs.client.output_read_mb_per_s",
          ratio(output_read_bytes_ / kMiB, output_read_s_));
    l.set("hdfs.namenode.rpcs_per_write", nn_rpcs_per_write_);
    l.set("hdfs.namenode.rpcs_per_read", ratio(nn_rpcs_read_, output_reads_));
    l.absent("hdfs.edit_log.txns_per_write",
             "NameNode not journaling (no dfs.namenode.name.dir) on this "
             "workload");
    l.set("hdfs.datanode.residual_bytes", median(residual_dn_));
    l.set("mr.tasktracker.heap_peak_bytes", heapPeak());
    l.set("mr.tasktracker.residual_heap_bytes", median(residual_heap_));
    l.set("mr.shuffle.residual_store_bytes", median(residual_store_));

    std::vector<double> submit, first_launch, idle, client_wait, map_ms,
        reduce_ms;
    double attempts = 0, succeeded = 0, local = 0, launched = 0;
    double spills = 0, spilled = 0, map_out_records = 0, map_out_bytes = 0;
    double combine_in = 0, combine_out = 0, shuffle_raw = 0, shuffle_wire = 0;
    double retries = 0, pipelined = 0, runs = 0, segments = 0;
    for (const auto& job : jobs_) {
      const auto& r = job.result;
      const auto& h = r.history;
      submit.push_back(job.submit_ms);
      client_wait.push_back(job.ms - static_cast<double>(h.finish_ms));
      idle.push_back(slotIdleMs(h));
      int64_t first = -1;
      for (const auto& a : h.attempts) {
        ++attempts;
        if (a.succeeded) ++succeeded;
        if (first < 0 || a.start_ms < first) first = a.start_ms;
        if (a.finished && a.succeeded) {
          (a.is_map ? map_ms : reduce_ms)
              .push_back(static_cast<double>(a.finish_ms - a.start_ms));
        }
      }
      first_launch.push_back(static_cast<double>(std::max<int64_t>(first, 0)));
      using namespace mr::counters;
      local += counter(r, kJobGroup, kDataLocalMaps);
      launched += counter(r, kJobGroup, kLaunchedMaps);
      spills += counter(r, kTaskGroup, kMapSpills);
      spilled += counter(r, kTaskGroup, kSpilledRecords);
      map_out_records += counter(r, kTaskGroup, kMapOutputRecords);
      map_out_bytes += counter(r, kTaskGroup, kMapOutputBytes);
      combine_in += counter(r, kTaskGroup, kCombineInputRecords);
      combine_out += counter(r, kTaskGroup, kCombineOutputRecords);
      const double wire = counter(r, kShuffleGroup, kShuffleBytes);
      const double raw = counter(r, kShuffleGroup, kShuffleRawBytes);
      shuffle_wire += wire;
      shuffle_raw += raw > 0 ? raw : wire;
      retries += counter(r, kShuffleGroup, kShuffleFetchRetries);
      pipelined += counter(r, kShuffleGroup, kShufflePipelinedRuns);
      runs += counter(r, kJobGroup, kLaunchedMaps) * shape_.reducers;
      segments += counter(r, kTaskGroup, kMergeSegments);
    }
    l.set("mr.jobtracker.submit_ms", median(submit));
    l.set("mr.jobtracker.first_launch_ms", median(first_launch));
    l.set("mr.jobtracker.slot_idle_ms_per_job", median(idle));
    l.set("mr.jobtracker.client_wait_ms", median(client_wait));
    l.set("mr.jobtracker.attempt_success_ratio", ratio(succeeded, attempts));
    l.set("mr.jobtracker.data_local_ratio", ratio(local, launched));
    l.set("mr.tasktracker.map_attempt_ms_p50", median(map_ms));
    l.set("mr.tasktracker.reduce_attempt_ms_p50", median(reduce_ms));
    l.set("mr.sort_spill.spills_per_job", ratio(spills, jobs));
    l.set("mr.sort_spill.spilled_records_ratio",
          ratio(spilled, map_out_records));
    l.set("mr.sort_spill.sort_us_per_mb",
          ratio(sumValues(acc_, "tasktracker.", "/map.sort.micros.sum_us"),
                map_out_bytes / kMiB));
    if (combine_in > 0) {
      l.set("mr.sort_spill.combine_output_ratio", combine_out / combine_in);
    } else {
      l.absent("mr.sort_spill.combine_output_ratio", "job has no combiner");
    }
    l.set("mr.shuffle.raw_bytes_per_job", ratio(shuffle_raw, jobs));
    l.set("mr.shuffle.wire_bytes_per_job", ratio(shuffle_wire, jobs));
    l.set("mr.shuffle.fetch_us_mean",
          ratio(sumValues(acc_, "tasktracker.", "/shuffle.fetch.micros.sum_us"),
                sumValues(acc_, "tasktracker.",
                          "/shuffle.fetch.micros.count")));
    l.set("mr.shuffle.fetch_retries_per_job", ratio(retries, jobs));
    l.set("mr.shuffle.pipelined_run_ratio", ratio(pipelined, runs));
    l.set("mr.merge.segments_per_job", ratio(segments, jobs));
    l.set("mr.local_runner.job_ms", local_ms_);
    std::vector<double> untraced;
    for (const auto& o : out.ops) untraced.push_back(o.ms);
    l.set("mr.local_runner.distributed_over_serial",
          ratio(median(untraced), local_ms_));
  }

  void recordNamedMetrics() override {
    std::vector<double> ms;
    for (const auto& o : out.ops) ms.push_back(o.ms);
    const LatencySummary s = summarize(ms);
    out.named["job_p50_ms"] = s.p50;
    out.named["job_tail_ms"] = s.tail;
    out.named["job_tail_percentile"] = s.tail_percentile;
    out.named["job_samples"] = static_cast<double>(s.samples);
    out.named["local_runner_job_ms"] = local_ms_;
  }

 private:
  /// Reads every part file back through DfsClient::readFile (timed: the
  /// output-read throughput) and compares with the serial reference.
  bool checkOutput(hdfs::DfsClient& client, bool layer) {
    Parts parts;
    for (const auto& status : client.listStatus("/out")) {
      if (!isPart(status.path)) continue;
      ClusterSnapshot before;
      if (layer) before = takeSnapshot(*cluster_->network());
      Timer watch;
      Bytes data = client.readFile(status.path);
      const double s = watch.seconds();
      if (layer) {
        output_read_bytes_ += static_cast<double>(data.size());
        output_read_s_ += s;
        nn_rpcs_read_ += namenodeClientRpcs(before,
                                            takeSnapshot(*cluster_->network()));
        ++output_reads_;
      }
      if (opt_.corrupt_output && !corrupted_ && !data.empty()) {
        data[0] ^= 0x01;
        corrupted_ = true;
      }
      parts[baseName(status.path)] = digest(data);
    }
    const std::string diff = compareParts(reference_, parts);
    if (!diff.empty()) out.fail("wrong output: " + diff);
    return diff.empty();
  }

  /// Resource ledgers after every op (output still present, so expected
  /// DataNode bytes are the live files times their replication).
  void readLedgers(hdfs::DfsClient& client) {
    auto& metrics = cluster_->metrics();
    double heap = 0, store = 0;
    for (const auto& host : cluster_->trackerHosts()) {
      MetricsRegistry& tracker = metrics.child("tasktracker." + host);
      heap += tracker.gaugeValue("heap.used_bytes");
      store += tracker.gaugeValue("mapoutput.store.bytes");
    }
    double used = 0;
    for (const auto& host : cluster_->dfs().dataNodeHosts()) {
      used += metrics.child("datanode." + host).gaugeValue("store.used_bytes");
    }
    double live = 0;
    for (const auto& path : client.listFilesRecursive("/")) {
      const auto status = client.getFileStatus(path);
      live += static_cast<double>(status.length) * status.replication;
    }
    residual_heap_.push_back(heap);
    residual_store_.push_back(store);
    residual_dn_.push_back(used - live);
  }

  double heapPeak() {
    double peak = 0;
    for (const auto& host : cluster_->trackerHosts()) {
      peak = std::max(peak, cluster_->metrics()
                                .child("tasktracker." + host)
                                .gaugeValue("heap.peak_bytes"));
    }
    return peak;
  }

  Bytes generateInput() const {
    if (shape_.sort) return sortRows(shape_.input_bytes, opt_.seed);
    data::TextCorpusGenerator gen(
        {.seed = opt_.seed, .target_bytes = shape_.input_bytes});
    return gen.generate();
  }

  std::string inputPath() const {
    return shape_.sort ? "/in/rows.txt" : "/in/corpus.txt";
  }

  const Options& opt_;
  Shape shape_;
  std::unique_ptr<mr::MiniMrCluster> cluster_;
  Parts reference_;
  double local_ms_ = 0;
  double stage_mb_per_s_ = 0;
  double nn_rpcs_per_write_ = 0;
  double nn_rpcs_read_ = 0, output_reads_ = 0;
  double output_read_bytes_ = 0, output_read_s_ = 0;
  bool corrupted_ = false;
  ClusterSnapshot acc_;
  std::vector<JobFacts> jobs_;
  std::vector<double> residual_heap_, residual_store_, residual_dn_;
};

}  // namespace

std::unique_ptr<Workload> makeMrWorkload(const Options& opt) {
  return std::make_unique<MrBench>(opt);
}

}  // namespace perfbench

// HDFS-only workload (dfs-mixed): a journaling NameNode, three DataNodes,
// replication 3, 64 KiB blocks, and one off-cluster client (the "client"
// host — `hadoop fs` from a login node) running a seeded mix of whole-file
// writes of new files, whole-file reads, listStatus and deletes. One op is
// one DfsClient call. Every read is compared with the bytes written to that
// path; every listing with the client's own view of the live set.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "workload.h"
#include "mh/common/rng.h"
#include "mh/hdfs/mini_cluster.h"

namespace perfbench {

namespace {

using namespace mh;
namespace fs = std::filesystem;

constexpr uint16_t kReplication = 3;
constexpr uint64_t kBlockSize = 64 * 1024;
constexpr size_t kInitialFiles = 48;
constexpr size_t kMaxLiveFiles = 64;
constexpr double kMiB = 1024.0 * 1024.0;

/// Seed-derived content of file `id`, log-uniform 1 KiB..256 KiB (1-4
/// blocks at 64 KiB). `stratum` (0..1) picks the size quantile for the
/// staged set, so every seed stages about the same number of bytes; new
/// files in the timed loop draw their quantile at random.
Bytes fileBytes(uint64_t seed, uint64_t id, double stratum = -1) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + id);
  const double lo = std::log(1024.0), hi = std::log(256.0 * 1024.0);
  const double u =
      stratum >= 0 ? stratum
                   : static_cast<double>(rng.uniform(1u << 30)) / (1u << 30);
  const auto size = static_cast<size_t>(std::exp(lo + u * (hi - lo)));
  Bytes out(size, '\0');
  for (size_t i = 0; i < size; i += 8) {
    const uint64_t r = rng.next();
    for (size_t b = 0; b < 8 && i + b < size; ++b) {
      out[i + b] = static_cast<char>(r >> (8 * b));
    }
  }
  return out;
}

class DfsBench final : public Workload {
 public:
  explicit DfsBench(const Options& opt) : opt_(opt), rng_(opt.seed ^ 0xD15C) {}

  // HDFS set-up takes milliseconds, so it is repeated more often than the
  // MapReduce one to get a steady median.
  int setups() const override { return 5; }
  TraceCollector& tracer() override { return cluster_->tracer(); }

  void setUp(bool last) override {
    name_dir_ = fs::path(opt_.work_dir) / ("name-" + opt_.workload);
    fs::remove_all(name_dir_);
    Config conf;
    conf.setInt("dfs.replication", kReplication);
    conf.setInt("dfs.blocksize", static_cast<int64_t>(kBlockSize));
    conf.set("dfs.namenode.name.dir", name_dir_.string());
    cluster_ = std::make_unique<hdfs::MiniDfsCluster>(
        hdfs::MiniDfsOptions{.num_datanodes = 3, .conf = conf});
    cluster_->waitOutOfSafeMode();
    client_ = std::make_unique<hdfs::DfsClient>(cluster_->client("client"));
    client_->mkdirs("/data");
    live_.clear();
    next_id_ = 0;
    double bytes = 0, secs = 0;
    for (size_t i = 0; i < kInitialFiles; ++i) {
      const uint64_t id = next_id_++;
      Bytes data = fileBytes(opt_.seed, id,
                             (static_cast<double>(i) + 0.5) / kInitialFiles);
      Timer w;
      client_->writeFile(pathOf(id), data);
      secs += w.seconds();
      bytes += static_cast<double>(data.size());
      live_[id] = std::move(data);
    }
    // Untimed-op warm-up: one read.
    const Bytes warm = client_->readFile(pathOf(live_.begin()->first));
    if (warm != live_.begin()->second) out.fail("warm-up read mismatch");
    if (last) stage_mb_per_s_ = bytes / kMiB / secs;
  }

  void tearDown() override {
    client_.reset();
    cluster_.reset();
    fs::remove_all(name_dir_);
  }

  /// One timed HDFS call with its check, then the ledger and, when traced,
  /// the trace checks.
  void runOneOp(bool traced, bool layer) override {
    auto& net = *cluster_->network();
    TraceCollector& tracer = this->tracer();
    const int64_t failed_before = out.failed;
    if (traced) tracer.clear();
    ClusterSnapshot before, after;
    double ms = 0, cpu = 0;
    uint64_t trace_id = 0;
    const std::string kind = step([&](auto&& call) {
      if (layer) before = takeSnapshot(net);
      const double cpu0 = processCpuMs();
      Timer op;
      if (traced) {
        // The benchmark's own root span gives each op one trace tree.
        trace_id = tracer.newId();
        TraceContextScope scope(TraceContext{trace_id, 0, 0});
        TraceSpan root(&tracer, "client", "OP");
        call();
      } else {
        call();
      }
      ms = op.ms();
      cpu = processCpuMs() - cpu0;
      if (layer) after = takeSnapshot(net);
    });
    readLedger();
    if (out.failed != failed_before) return;
    if (traced) {
      const std::string err =
          tally.add(tracer, trace_id, /*job_root=*/false, ms,
                     kind + " op, " + std::to_string(ms) + " ms\n");
      if (!err.empty()) {
        out.fail("trace check: " + err);
        return;
      }
    }
    (traced ? out.traced_ops : out.ops).push_back({kind, ms, cpu});
    if (layer) accumulate(kind, ms, before, after);
  }

  void finishLayerMetrics() override {
    LayerMetrics& l = out.layer;
    addFabricAndStorageMetrics(l, acc_, layer_ops_);
    l.set("hdfs.client.stage_mb_per_s", stage_mb_per_s_);
    l.set("hdfs.client.output_read_mb_per_s",
          ratio(read_bytes_ / kMiB, read_ms_ / 1e3));
    l.set("hdfs.namenode.rpcs_per_write", ratio(nn_write_rpcs_, writes_));
    l.set("hdfs.namenode.rpcs_per_read", ratio(nn_read_rpcs_, reads_));
    l.set("hdfs.edit_log.txns_per_write", ratio(write_txns_, writes_));
    l.set("hdfs.datanode.residual_bytes", median(residual_dn_));
    const std::string why = "HDFS-only workload: no MapReduce layer runs";
    for (const char* m :
         {"mr.jobtracker.submit_ms", "mr.jobtracker.first_launch_ms",
          "mr.jobtracker.slot_idle_ms_per_job", "mr.jobtracker.client_wait_ms",
          "mr.jobtracker.attempt_success_ratio",
          "mr.jobtracker.data_local_ratio", "mr.tasktracker.map_attempt_ms_p50",
          "mr.tasktracker.reduce_attempt_ms_p50",
          "mr.tasktracker.heap_peak_bytes",
          "mr.tasktracker.residual_heap_bytes", "mr.sort_spill.spills_per_job",
          "mr.sort_spill.spilled_records_ratio", "mr.sort_spill.sort_us_per_mb",
          "mr.sort_spill.combine_output_ratio", "mr.shuffle.raw_bytes_per_job",
          "mr.shuffle.wire_bytes_per_job", "mr.shuffle.fetch_us_mean",
          "mr.shuffle.fetch_retries_per_job", "mr.shuffle.pipelined_run_ratio",
          "mr.shuffle.residual_store_bytes", "mr.merge.segments_per_job",
          "mr.local_runner.job_ms",
          "mr.local_runner.distributed_over_serial"}) {
      l.absent(m, why);
    }
  }

  void recordNamedMetrics() override {
    std::map<std::string, std::vector<double>> by_kind;
    double total_ms = 0;
    for (const auto& o : out.ops) {
      by_kind[o.kind].push_back(o.ms * 1e3);
      total_ms += o.ms;
    }
    out.named["dfs_ops_per_s"] =
        ratio(static_cast<double>(out.ops.size()), total_ms / 1e3);
    for (const char* kind : {"write", "read"}) {
      const LatencySummary s = summarize(by_kind[kind]);
      const std::string k = kind;
      out.named[k + "_p50_us"] = s.p50;
      out.named[k + "_tail_us"] = s.tail;
      out.named[k + "_tail_percentile"] = s.tail_percentile;
      out.named[k + "_samples"] = static_cast<double>(s.samples);
    }
  }

 private:
  static std::string pathOf(uint64_t id) {
    return "/data/f" + std::to_string(id);
  }

  uint64_t randomLive() {
    auto it = live_.begin();
    std::advance(it, static_cast<long>(rng_.uniform(live_.size())));
    return it->first;
  }

  /// One op of the mix: ~25% writes, ~65% reads, 5% listStatus, 5% deletes
  /// (a write at the live-set cap deletes instead). Returns its kind; the
  /// timed call is bracketed by `timed`.
  template <typename Timed>
  std::string step(Timed&& timed) {
    const uint64_t r = rng_.uniform(100);
    if ((r < 25 && live_.size() < kMaxLiveFiles) || live_.empty()) {
      const uint64_t id = next_id_++;
      Bytes data = fileBytes(opt_.seed, id);
      timed([&] { client_->writeFile(pathOf(id), data); });
      live_[id] = std::move(data);
      return "write";
    }
    if (r >= 25 && r < 90) {
      const uint64_t id = randomLive();
      Bytes got;
      timed([&] { got = client_->readFile(pathOf(id)); });
      if (opt_.corrupt_output && !corrupted_ && !got.empty()) {
        got[got.size() / 2] ^= 0x01;
        corrupted_ = true;
      }
      if (got != live_[id]) out.fail("read of " + pathOf(id) + " mismatched");
      last_read_bytes_ = static_cast<double>(got.size());
      return "read";
    }
    if (r >= 90 && r < 95) {
      std::vector<hdfs::FileStatus> listing;
      timed([&] { listing = client_->listStatus("/data"); });
      if (listing.size() != live_.size()) {
        out.fail("listStatus saw " + std::to_string(listing.size()) +
                  " files, " + std::to_string(live_.size()) + " are live");
      }
      return "list";
    }
    const uint64_t id = randomLive();
    bool removed = false;
    timed([&] { removed = client_->remove(pathOf(id), false); });
    if (!removed) out.fail("delete of " + pathOf(id) + " returned false");
    live_.erase(id);
    return "delete";
  }

  /// DataNode bytes against live files x replication, after every op.
  void readLedger() {
    double used = 0;
    for (const auto& host : cluster_->dataNodeHosts()) {
      used += cluster_->metrics()
                  .child("datanode." + host)
                  .gaugeValue("store.used_bytes");
    }
    double live = 0;
    for (const auto& [id, data] : live_) {
      live += static_cast<double>(data.size());
    }
    residual_dn_.push_back(used - live * kReplication);
  }

  void accumulate(const std::string& kind, double ms,
                  const ClusterSnapshot& before, const ClusterSnapshot& after) {
    accumulateDelta(acc_, before, after);
    ++layer_ops_;
    if (kind == "write") {
      ++writes_;
      nn_write_rpcs_ += namenodeClientRpcs(before, after);
      write_txns_ += delta(before, after, "namenode/edits.txns");
    } else if (kind == "read") {
      ++reads_;
      read_bytes_ += last_read_bytes_;
      read_ms_ += ms;
      nn_read_rpcs_ += namenodeClientRpcs(before, after);
    }
  }

  const Options& opt_;
  Rng rng_;
  fs::path name_dir_;
  std::unique_ptr<hdfs::MiniDfsCluster> cluster_;
  std::unique_ptr<hdfs::DfsClient> client_;
  std::map<uint64_t, Bytes> live_;
  uint64_t next_id_ = 0;
  bool corrupted_ = false;
  double stage_mb_per_s_ = 0;
  double read_bytes_ = 0, read_ms_ = 0, last_read_bytes_ = 0;
  ClusterSnapshot acc_;
  double layer_ops_ = 0, writes_ = 0, reads_ = 0;
  double nn_write_rpcs_ = 0, nn_read_rpcs_ = 0, write_txns_ = 0;
  std::vector<double> residual_dn_;
};

}  // namespace

std::unique_ptr<Workload> makeDfsWorkload(const Options& opt) {
  return std::make_unique<DfsBench>(opt);
}

}  // namespace perfbench

// Tentpole benchmark — zero-copy data path. Read leg: measures readFile
// throughput through three data paths on the same MiniDfsCluster: the seed
// copy path
// (legacy call() per block, reply materialized to Bytes at the fabric
// boundary, then concatenated), the zero-copy RPC path (callBuf views,
// refcount bumps instead of payload copies), and short-circuit local reads
// (no RPC at all: checksum-verified views straight from the co-located
// BlockStore). Each path runs both node-local and off-cluster. A WordCount
// job then runs end-to-end with short-circuit off vs on to show the wall
// clock effect on a real job. All paths must produce byte-identical file
// contents; node-local zero-copy must be >= 2x the seed copy path, and a
// fully node-local short-circuit read must issue zero readBlock RPCs.
// Write leg: writeFile throughput at replication 2 and 3 through the old
// copying pipeline (kept only here, as the baseline: the client packs each
// block into a fresh buffer, every DataNode copies it into its store and
// re-packs it for the next hop) and through the zero-copy pipeline (one
// request buffer per block, adopted as a slice by every replica). Both
// must store identical bytes, and every zero-copy replica of a block must
// share one buffer.
// Writes a machine-readable summary to BENCH_data_path.json (or argv[1]).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mh/apps/wordcount.h"
#include "mh/common/buffer.h"
#include "mh/common/rng.h"
#include "mh/common/serde.h"
#include "mh/common/stopwatch.h"
#include "mh/hdfs/block_store.h"
#include "mh/hdfs/dfs_client.h"
#include "mh/hdfs/mini_cluster.h"
#include "mh/hdfs/wire.h"
#include "mh/hdfs/types.h"
#include "mh/mr/mini_mr_cluster.h"
#include "mh/net/network.h"

namespace {

using namespace mh;
using namespace mh::hdfs;

constexpr uint64_t kBlockSize = 4 * 1024 * 1024;
constexpr uint64_t kFileBytes = 8 * kBlockSize;  // 8 blocks, 32 MiB
constexpr int kReps = 5;

Config dfsConf() {
  Config conf;
  conf.setInt("dfs.replication", 3);
  conf.setInt("dfs.blocksize", static_cast<int64_t>(kBlockSize));
  conf.setInt("dfs.heartbeat.interval.ms", 50);
  return conf;
}

Bytes makePayload() {
  Rng rng(20260807);
  Bytes out;
  out.reserve(kFileBytes);
  for (uint64_t i = 0; i < kFileBytes; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform(26)));
  }
  return out;
}

DfsClient makeClient(MiniDfsCluster& cluster, const std::string& host,
                     bool short_circuit) {
  Config conf = cluster.conf();
  conf.setBool("dfs.client.read.shortcircuit", short_circuit);
  return DfsClient(conf, cluster.network(), host, "namenode");
}

/// The seed engine's read path, verbatim in shape: one legacy call() per
/// block (the reply is materialized into an owned Bytes at the fabric
/// boundary) concatenated into the result — one full payload copy per hop.
Bytes seedCopyRead(MiniDfsCluster& cluster, const std::string& from,
                   const std::vector<LocatedBlock>& blocks) {
  Bytes out;
  out.reserve(kFileBytes);
  for (const LocatedBlock& located : blocks) {
    // Prefer the caller's own host like the seed client did.
    std::string host = located.hosts.front();
    for (const std::string& h : located.hosts) {
      if (h == from) host = h;
    }
    out += cluster.network()->call(
        from, host, kDataNodePort, "readBlock",
        pack(located.block.id, uint64_t{0}, located.block.size), "read");
  }
  return out;
}

/// The copying write pipeline the repository used before the zero-copy
/// one, kept only as this bench's baseline. Per block: the client packs the
/// payload into a fresh request (copy 1); each DataNode copies it into a
/// fresh replica (copies 2 and 4) and re-packs the whole block for the next
/// hop (copy 3). The hosts and block ids are fixed by the bench, so unlike
/// the real path it pays no NameNode RPCs — which favours the baseline.
class CopyingPipeline {
 public:
  explicit CopyingPipeline(int nodes)
      : network_(std::make_shared<net::Network>()) {
    network_->addHost("client");
    for (int i = 1; i <= nodes; ++i) {
      const std::string host = "dn" + std::to_string(i);
      hosts_.push_back(host);
      stores_[host] = std::make_shared<MemBlockStore>();
      network_->addHost(host);
      network_->bindBuf(host, kDataNodePort,
                        [this, host](const net::BufRpcRequest& req)
                            -> BufferView {
        auto [block, data, downstream, stored] =
            unpack<Block, std::string_view, std::vector<std::string>, bool>(
                req.body.view());
        stores_.at(host)->writeBlock(block.id, data);
        if (!downstream.empty()) {
          const std::string next = downstream.front();
          downstream.erase(downstream.begin());
          network_->call(host, next, kDataNodePort, "writeBlock",
                         pack(block, data, downstream, stored), "pipeline");
        }
        return {};
      });
    }
  }

  /// Drops every replica (the previous file), so reps do not pile up.
  void clear() {
    for (const auto& [host, store] : stores_) {
      for (const BlockId id : store->listBlocks()) store->deleteBlock(id);
    }
  }

  void writeFile(std::string_view data, int replication) {
    const std::vector<std::string> downstream(hosts_.begin() + 1,
                                              hosts_.begin() + replication);
    for (uint64_t offset = 0; offset < data.size(); offset += kBlockSize) {
      const std::string_view payload = data.substr(offset, kBlockSize);
      network_->call("client", hosts_.front(), kDataNodePort, "writeBlock",
                     pack(Block{next_id_++, payload.size()}, payload,
                          downstream, /*stored=*/false),
                     "pipeline");
    }
  }

  /// The last file written, read back from the last replica in the chain.
  Bytes lastFile(int replication) const {
    const BlockStore& store = *stores_.at(hosts_[replication - 1]);
    Bytes out;
    const BlockId blocks = kFileBytes / kBlockSize;
    for (BlockId id = next_id_ - blocks; id < next_id_; ++id) {
      out.append(store.readBlock(id).view());
    }
    return out;
  }

 private:
  std::shared_ptr<net::Network> network_;
  std::vector<std::string> hosts_;
  std::map<std::string, std::shared_ptr<MemBlockStore>> stores_;
  BlockId next_id_ = 1;
};

/// True when every replica of every block of `path` is a view of one
/// shared buffer: the zero-copy pipeline made no copy past the client's.
bool replicasShareOneBuffer(MiniDfsCluster& cluster, const std::string& path) {
  for (const LocatedBlock& located :
       cluster.client().getBlockLocations(path)) {
    const Bytes* backing = nullptr;
    for (const std::string& host : located.hosts) {
      const Bytes* buffer = cluster.dataNode(host)
                                .store()
                                .readStored(located.block.id)
                                .stored.buffer()
                                .shared()
                                .get();
      if (backing == nullptr) backing = buffer;
      if (buffer != backing) return false;
    }
  }
  return true;
}

/// Best wall time of kReps runs; `prepare` runs untimed before each one.
template <typename Fn, typename Prepare = void (*)()>
int64_t bestOfReps(Fn&& run, Prepare&& prepare = [] {}) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < kReps; ++r) {
    prepare();
    Stopwatch watch;
    run();
    best = std::min(best, watch.elapsedMicros());
  }
  return best;
}

double mbPerSec(int64_t micros) {
  return static_cast<double>(kFileBytes) / (1024.0 * 1024.0) /
         (static_cast<double>(micros) / 1e6);
}

struct Row {
  std::string path;
  std::string locality;
  int64_t micros;
  double mb_per_sec;
};

int64_t scReads(MiniDfsCluster& cluster) {
  return cluster.metrics().child("dfsclient").counterValue(
      "short.circuit.reads");
}

/// Runs WordCount end-to-end and returns wall millis; outputs land in
/// `parts` keyed by file name for the byte-identical comparison.
int64_t runWordCount(bool short_circuit, std::map<std::string, Bytes>& parts) {
  Config conf;
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 256 * 1024);
  conf.setInt("mapred.tasktracker.map.tasks.maximum", 2);
  conf.setInt("mapred.tasktracker.heartbeat.ms", 20);
  conf.setInt("dfs.heartbeat.interval.ms", 50);
  conf.setBool("dfs.client.read.shortcircuit", short_circuit);
  mr::MiniMrCluster cluster({.num_nodes = 3, .conf = conf});

  Rng rng(7);
  static const char* kWords[] = {"the", "quick", "brown", "fox",
                                 "jumps", "over", "lazy", "dog"};
  Bytes corpus;
  for (int line = 0; line < 20'000; ++line) {
    for (int w = 0; w < 10; ++w) {
      corpus += kWords[rng.uniform(8)];
      corpus.push_back(w == 9 ? '\n' : ' ');
    }
  }
  cluster.client().writeFile("/in/corpus.txt", corpus);

  Stopwatch watch;
  const auto result = cluster.runJob(
      apps::makeWordCountJob({"/in"}, "/out", /*with_combiner=*/true,
                             /*num_reducers=*/2));
  const int64_t millis = watch.elapsedMillis();
  if (!result.succeeded()) {
    std::fprintf(stderr, "wordcount failed: %s\n", result.error.c_str());
    std::exit(1);
  }
  auto client = cluster.client();
  for (const auto& status : client.listStatus("/out")) {
    const auto slash = status.path.rfind('/');
    parts[status.path.substr(slash + 1)] = client.readFile(status.path);
  }
  return millis;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_data_path.json";

  MiniDfsCluster cluster({.num_datanodes = 3, .conf = dfsConf()});
  const Bytes payload = makePayload();
  cluster.client().writeFile("/bench/data.bin", payload);

  auto local_rpc = makeClient(cluster, "node01", /*short_circuit=*/false);
  auto remote_rpc = makeClient(cluster, "client", /*short_circuit=*/false);
  auto local_sc = makeClient(cluster, "node01", /*short_circuit=*/true);
  const auto blocks = remote_rpc.getBlockLocations("/bench/data.bin");

  std::printf("=== readFile data path: seed copy vs zero-copy vs "
              "short-circuit (%llu MiB, %llu MiB blocks) ===\n\n",
              static_cast<unsigned long long>(kFileBytes >> 20),
              static_cast<unsigned long long>(kBlockSize >> 20));
  std::printf("%-14s %-10s %12s %10s\n", "path", "locality", "micros",
              "MB/s");

  std::vector<Row> rows;
  bool identical = true;
  const auto record = [&](const std::string& path, const std::string& loc,
                          int64_t micros) {
    rows.push_back({path, loc, micros, mbPerSec(micros)});
    std::printf("%-14s %-10s %12lld %10.0f\n", path.c_str(), loc.c_str(),
                static_cast<long long>(micros), mbPerSec(micros));
  };

  // Seed copy path: legacy call() per block + concatenation.
  Bytes seed_local;
  record("seed_copy", "node-local",
         bestOfReps([&] { seed_local = seedCopyRead(cluster, "node01",
                                                    blocks); }));
  identical = identical && seed_local == payload;
  Bytes seed_remote;
  record("seed_copy", "remote",
         bestOfReps([&] { seed_remote = seedCopyRead(cluster, "client",
                                                     blocks); }));
  identical = identical && seed_remote == payload;

  // Zero-copy RPC path: callBuf views end-to-end, no payload copy.
  std::vector<BufferView> views;
  record("zerocopy_rpc", "node-local",
         bestOfReps([&] { views = local_rpc.readFileViews("/bench/data.bin");
         }));
  record("zerocopy_rpc", "remote",
         bestOfReps([&] { views = remote_rpc.readFileViews("/bench/data.bin");
         }));

  // Short-circuit: no RPC at all, views straight from the local store.
  const uint64_t read_rpcs_before = cluster.network()->messages("read");
  const int64_t sc_reads_before = scReads(cluster);
  record("short_circuit", "node-local",
         bestOfReps([&] { views = local_sc.readFileViews("/bench/data.bin");
         }));
  const uint64_t sc_read_rpcs =
      cluster.network()->messages("read") - read_rpcs_before;
  const int64_t sc_reads = scReads(cluster) - sc_reads_before;

  // Write leg: old copying pipeline vs zero-copy pipeline, replication 2
  // and 3, each rep writing a fresh file (the previous one is deleted).
  std::printf("\n=== writeFile pipeline: copying vs zero-copy (%llu MiB, "
              "%llu MiB blocks) ===\n\n",
              static_cast<unsigned long long>(kFileBytes >> 20),
              static_cast<unsigned long long>(kBlockSize >> 20));
  std::printf("%-18s %-10s %12s %10s\n", "path", "repl", "micros", "MB/s");
  std::vector<Row> write_rows;
  bool writes_identical = true;
  bool writes_shared = true;
  std::map<int, double> write_speedup;
  const auto record_write = [&](const std::string& path, int replication,
                                int64_t micros) {
    const std::string repl = std::to_string(replication);
    write_rows.push_back({path, repl, micros, mbPerSec(micros)});
    std::printf("%-18s %-10s %12lld %10.0f\n", path.c_str(), repl.c_str(),
                static_cast<long long>(micros), mbPerSec(micros));
  };
  for (const int replication : {2, 3}) {
    CopyingPipeline copying(3);
    const int64_t copy_us =
        bestOfReps([&] { copying.writeFile(payload, replication); },
                   [&] { copying.clear(); });
    record_write("copy_pipeline", replication, copy_us);
    writes_identical =
        writes_identical && copying.lastFile(replication) == payload;

    auto writer = cluster.client();
    int rep = 0;
    std::string path;
    const int64_t zero_us = bestOfReps(
        [&] {
          writer.writeFile(path, payload, static_cast<uint16_t>(replication));
        },
        [&] {
          if (!path.empty()) {
            // Delete the previous rep's file and let every DataNode run
            // its delete commands now, so reps do not pile up.
            writer.remove(path, false);
            for (const auto& host : cluster.dataNodeHosts()) {
              cluster.dataNode(host).heartbeatNow();
            }
          }
          path = "/bench/w" + std::to_string(replication) + "_" +
                 std::to_string(rep++);
        });
    record_write("zerocopy_pipeline", replication, zero_us);
    writes_identical = writes_identical && writer.readFile(path) == payload;
    writes_shared = writes_shared && replicasShareOneBuffer(cluster, path);
    writer.remove(path, false);
    write_speedup[replication] =
        static_cast<double>(copy_us) / static_cast<double>(zero_us);
  }
  std::printf("\nwrite speedup (copying -> zero-copy): %.2fx at replication "
              "2, %.2fx at replication 3; identical: %s; replicas share "
              "the client's buffer: %s\n",
              write_speedup[2], write_speedup[3],
              writes_identical ? "yes" : "NO", writes_shared ? "yes" : "NO");

  // Byte-identical across every path: assemble the final views once.
  Bytes assembled;
  assembled.reserve(kFileBytes);
  for (const BufferView& v : views) assembled.append(v.view());
  identical = identical && assembled == payload;

  const double speedup_local =
      static_cast<double>(rows[0].micros) / static_cast<double>(rows[4].micros);
  const double speedup_remote =
      static_cast<double>(rows[1].micros) / static_cast<double>(rows[3].micros);
  std::printf("\nnode-local speedup (seed copy -> short-circuit): %.2fx; "
              "remote speedup (seed copy -> zero-copy RPC): %.2fx\n",
              speedup_local, speedup_remote);
  std::printf("short-circuit reads: %lld, readBlock RPCs during "
              "short-circuit phase: %llu, byte-identical: %s\n",
              static_cast<long long>(sc_reads),
              static_cast<unsigned long long>(sc_read_rpcs),
              identical ? "yes" : "NO");

  // WordCount end-to-end, short-circuit off vs on.
  std::map<std::string, Bytes> parts_off, parts_on;
  const int64_t wc_off_ms = runWordCount(false, parts_off);
  const int64_t wc_on_ms = runWordCount(true, parts_on);
  const bool wc_identical = !parts_off.empty() && parts_off == parts_on;
  std::printf("\nwordcount wall time: %lld ms (short-circuit off), %lld ms "
              "(on); outputs byte-identical: %s\n",
              static_cast<long long>(wc_off_ms),
              static_cast<long long>(wc_on_ms), wc_identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"data_path\",\n"
       << "  \"file_bytes\": " << kFileBytes << ",\n"
       << "  \"block_bytes\": " << kBlockSize << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"outputs_byte_identical\": "
       << (identical && wc_identical && writes_identical ? "true" : "false")
       << ",\n"
       << "  \"write_replicas_share_one_buffer\": "
       << (writes_shared ? "true" : "false") << ",\n"
       << "  \"write_speedup_repl2\": " << write_speedup[2] << ",\n"
       << "  \"write_speedup_repl3\": " << write_speedup[3] << ",\n"
       << "  \"speedup_node_local\": " << speedup_local << ",\n"
       << "  \"speedup_remote\": " << speedup_remote << ",\n"
       << "  \"short_circuit_reads\": " << sc_reads << ",\n"
       << "  \"short_circuit_read_rpcs\": " << sc_read_rpcs << ",\n"
       << "  \"wordcount_off_ms\": " << wc_off_ms << ",\n"
       << "  \"wordcount_on_ms\": " << wc_on_ms << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"path\": \"" << rows[i].path << "\", \"locality\": \""
         << rows[i].locality << "\", \"micros\": " << rows[i].micros
         << ", \"mb_per_sec\": " << rows[i].mb_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"write_results\": [\n";
  for (size_t i = 0; i < write_rows.size(); ++i) {
    json << "    {\"path\": \"" << write_rows[i].path
         << "\", \"replication\": " << write_rows[i].locality
         << ", \"micros\": " << write_rows[i].micros
         << ", \"mb_per_sec\": " << write_rows[i].mb_per_sec << "}"
         << (i + 1 < write_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Shape gates: identical bytes always; a fully node-local read must not
  // issue a single readBlock RPC and must short-circuit every block; the
  // zero-copy local path must beat the seed copy path clearly; zero-copy
  // write replicas must share the client's one copy.
  if (!identical || !wc_identical || !writes_identical) return 1;
  if (!writes_shared) return 1;
  if (sc_read_rpcs != 0) return 1;
  if (sc_reads < static_cast<int64_t>(kReps * blocks.size())) return 1;
  if (speedup_local < 2.0) return 1;
  return 0;
}

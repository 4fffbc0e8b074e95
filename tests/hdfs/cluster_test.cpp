#include "mh/hdfs/mini_cluster.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "mh/common/error.h"
#include "mh/common/rng.h"
#include "testutil/aggressive_timers.h"

namespace mh::hdfs {
namespace {

Config fastConf() {
  Config conf = testutil::aggressiveTimers();
  conf.setInt("dfs.replication", 2);
  conf.setInt("dfs.blocksize", 1024);
  return conf;
}

Bytes randomPayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform(26)));
  }
  return out;
}

TEST(MiniDfsClusterTest, WriteReadRoundTripAcrossBlocks) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(10'000, 7);  // ~10 blocks of 1 KiB
  client.writeFile("/data/big.txt", payload);
  EXPECT_EQ(client.readFile("/data/big.txt"), payload);
  const auto located = client.getBlockLocations("/data/big.txt");
  EXPECT_EQ(located.size(), 10u);
  for (const auto& lb : located) EXPECT_EQ(lb.hosts.size(), 2u);
}

TEST(MiniDfsClusterTest, ParallelReadWidthsAgree) {
  // readFile fetches blocks with up to dfs.client.parallel.reads in
  // flight; every width (serial included) must assemble identical bytes.
  Config conf = fastConf();
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  const Bytes payload = randomPayload(9'000, 21);  // 9 blocks of 1 KiB
  cluster.client().writeFile("/wide.txt", payload);
  for (const int width : {1, 2, 16}) {
    Config read_conf = conf;
    read_conf.setInt("dfs.client.parallel.reads", width);
    DfsClient client(read_conf, cluster.network(), "client", "namenode");
    EXPECT_EQ(client.readFile("/wide.txt"), payload) << "width " << width;
  }
}

TEST(MiniDfsClusterTest, EmptyFile) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/empty", "");
  EXPECT_EQ(client.readFile("/empty"), "");
  EXPECT_EQ(client.getFileStatus("/empty").length, 0u);
}

TEST(MiniDfsClusterTest, ReplicationIsObservableOnDataNodes) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(3000, 1));
  // 3 blocks x 2 replicas = 6 replicas across all stores.
  size_t replicas = 0;
  for (const auto& host : cluster.dataNodeHosts()) {
    replicas += cluster.dataNode(host).store().listBlocks().size();
  }
  EXPECT_EQ(replicas, 6u);
  EXPECT_TRUE(cluster.waitHealthy());
}

TEST(MiniDfsClusterTest, LocalReadStaysLocal) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  // Writing from a datanode host puts the first replica there...
  auto writer = cluster.client("node01");
  writer.writeFile("/local.txt", randomPayload(2048, 2));
  cluster.network()->resetStats();
  // ...so reading from the same host should move zero remote "read" bytes.
  auto reader = cluster.client("node01");
  reader.readFile("/local.txt");
  EXPECT_EQ(cluster.network()->remoteBytes("read"), 0u);
  EXPECT_GT(cluster.network()->localBytes("read"), 2048u);
}

TEST(MiniDfsClusterTest, RemoteClientReadIsRemote) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  auto client = cluster.client();  // off-cluster host
  client.writeFile("/remote.txt", randomPayload(2048, 3));
  cluster.network()->resetStats();
  client.readFile("/remote.txt");
  EXPECT_GT(cluster.network()->remoteBytes("read"), 2048u);
}

TEST(MiniDfsClusterTest, PipelineWritesMeterReplicationTraffic) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  cluster.network()->resetStats();
  client.writeFile("/f", randomPayload(4096, 4));
  // Client->head plus head->second hop: at least 2x the payload crosses.
  EXPECT_GE(cluster.network()->remoteBytes("pipeline"), 2 * 4096u);
}

uint64_t replicaCount(MiniDfsCluster& cluster, BlockId id) {
  uint64_t n = 0;
  for (const auto& host : cluster.dataNodeHosts()) {
    if (cluster.dataNode(host).store().hasBlock(id)) ++n;
  }
  return n;
}

TEST(MiniDfsClusterTest, BlockInFlightIsNotReReplicated) {
  // The NameNode monitor runs every millisecond and every downstream hop
  // is held back 100 ms, so for a long window the NameNode sees only the
  // head's replica of a block whose pipeline is still writing the second.
  // It must not schedule a third copy (which the over-replication pass
  // would later delete): the block is under construction until complete.
  Config conf = fastConf();
  conf.setInt("dfs.namenode.monitor.interval.ms", 1);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto plan = std::make_shared<net::FaultPlan>(1);
  for (const auto& host : cluster.dataNodeHosts()) {
    net::FaultRule rule;
    rule.match.method = "writeBlock";
    rule.match.from = host;  // DataNode -> DataNode only; not the client
    rule.match.tag = "pipeline";
    rule.action = net::FaultAction::kDelay;
    rule.delay_micros = 100'000;
    plan->addRule(rule);
  }
  cluster.network()->setFaultPlan(plan);
  auto client = cluster.client();
  const Bytes payload = randomPayload(2048, 12);  // 2 blocks
  client.writeFile("/f", payload);
  cluster.network()->setFaultPlan(nullptr);
  EXPECT_EQ(plan->injectedFaults(), 2u);  // one delayed hop per block

  // Give a wrongly scheduled copy and its clean-up time to show up.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(cluster.waitHealthy());
  EXPECT_EQ(cluster.network()->messages("replication"), 0u);
  EXPECT_EQ(cluster.network()->remoteBytes("replication") +
                cluster.network()->localBytes("replication"),
            0u);
  int64_t deletes = 0;
  for (const auto& host : cluster.dataNodeHosts()) {
    deletes += cluster.metrics().child("datanode." + host).counterValue(
        "deletes");
  }
  EXPECT_EQ(deletes, 0);
  for (const auto& lb : client.getBlockLocations("/f")) {
    EXPECT_EQ(replicaCount(cluster, lb.block.id), 2u);
  }
  EXPECT_EQ(client.readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, PipelineReplicasShareTheClientsOneCopy) {
  // Zero-copy write path: the client copies each block once into its
  // request, and every replica in the pipeline adopts a slice of it.
  Config conf = fastConf();
  conf.setInt("dfs.replication", 3);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto client = cluster.client();
  const Bytes payload = randomPayload(3000, 13);  // 3 blocks
  client.writeFile("/f", payload);
  const auto located = client.getBlockLocations("/f");
  ASSERT_EQ(located.size(), 3u);
  for (const auto& lb : located) {
    ASSERT_EQ(lb.hosts.size(), 3u);
    const Bytes* backing = nullptr;
    for (const auto& host : lb.hosts) {
      const StoredReplica replica =
          cluster.dataNode(host).store().readStored(lb.block.id);
      EXPECT_EQ(replica.stored, payload.substr(lb.offset, lb.block.size));
      const Bytes* buffer = replica.stored.buffer().shared().get();
      if (backing == nullptr) backing = buffer;
      EXPECT_EQ(buffer, backing) << "replica on " << host << " was copied";
    }
  }

  // Copy-on-write corruption of one replica leaves the others clean.
  const LocatedBlock& first = located[0];
  cluster.dataNode(first.hosts[0]).store().corruptBlock(first.block.id, 7);
  EXPECT_THROW(cluster.dataNode(first.hosts[0]).store().readStored(
                   first.block.id),
               ChecksumError);
  for (size_t i = 1; i < first.hosts.size(); ++i) {
    BlockStore& store = cluster.dataNode(first.hosts[i]).store();
    EXPECT_TRUE(store.scanAll().empty()) << first.hosts[i];
    EXPECT_EQ(store.readBlock(first.block.id), payload.substr(0, 1024));
  }
}

TEST(MiniDfsClusterTest, FailedPipelineHeadIsSkippedAndRepairedOnComplete) {
  // The client's hop to the head fails: the same request goes to the next
  // host, which forwards it on to the last. The block lands one replica
  // short and is repaired once the file is complete.
  Config conf = fastConf();
  conf.setInt("dfs.replication", 3);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto plan = std::make_shared<net::FaultPlan>(1);
  net::FaultRule rule;
  rule.match.method = "writeBlock";
  rule.match.from = "client";
  rule.action = net::FaultAction::kError;
  rule.nth = 1;
  plan->addRule(rule);
  cluster.network()->setFaultPlan(plan);
  auto client = cluster.client();
  const Bytes payload = randomPayload(1000, 14);  // 1 block
  client.writeFile("/f", payload);
  cluster.network()->setFaultPlan(nullptr);
  EXPECT_EQ(plan->ruleFires(0), 1u);
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  const auto located = client.getBlockLocations("/f");
  ASSERT_EQ(located.size(), 1u);
  EXPECT_EQ(located[0].hosts.size(), 3u);
  EXPECT_EQ(client.readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, MidPipelineFailureIsRepairedOnComplete) {
  // The head stores the block but its hop to the second node fails, so the
  // pipeline stops there. Re-replication restores the factor afterwards.
  Config conf = fastConf();
  conf.setInt("dfs.replication", 3);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto plan = std::make_shared<net::FaultPlan>(1);
  net::FaultRule rule;
  rule.match.method = "writeBlock";
  rule.match.tag = "pipeline";
  rule.action = net::FaultAction::kError;
  rule.nth = 2;  // the 1st is client -> head, the 2nd head -> second
  plan->addRule(rule);
  cluster.network()->setFaultPlan(plan);
  auto client = cluster.client();
  const Bytes payload = randomPayload(1000, 15);  // 1 block
  client.writeFile("/f", payload);
  cluster.network()->setFaultPlan(nullptr);
  EXPECT_EQ(plan->ruleFires(0), 1u);
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_GT(cluster.network()->messages("replication"), 0u);
  EXPECT_EQ(client.getBlockLocations("/f")[0].hosts.size(), 3u);
  EXPECT_EQ(client.readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, DataNodeCrashTriggersReReplication) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(4096, 5));
  ASSERT_TRUE(cluster.waitHealthy());

  // Kill a replica holder.
  const auto located = client.getBlockLocations("/f");
  cluster.killDataNode(located[0].hosts[0]);

  // Wait for the NameNode to notice the death (heartbeat expiry)...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.nameNode().liveDataNodes() == 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(cluster.nameNode().liveDataNodes(), 2u);

  // ...then it must restore full replication using the remaining nodes.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  for (const auto& lb : client.getBlockLocations("/f")) {
    EXPECT_EQ(lb.hosts.size(), 2u);
    for (const auto& host : lb.hosts) {
      EXPECT_NE(host, located[0].hosts[0]);
    }
  }
  // Data still fully readable.
  EXPECT_EQ(client.readFile("/f").size(), 4096u);
}

TEST(MiniDfsClusterTest, CorruptReplicaIsRepairedFromGoodCopy) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(2048, 6);
  client.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());

  const auto located = client.getBlockLocations("/f");
  const std::string victim = located[0].hosts[0];
  cluster.dataNode(victim).store().corruptBlock(located[0].block.id, 100);

  // The scanner finds it and reports; the cluster heals.
  cluster.dataNode(victim).runBlockScanner();
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(client.readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, ClientReadFallsOverOnCorruptReplica) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  // Read from the replica holder itself so the corrupt local copy is tried
  // first — the fall-over path must kick in.
  auto writer = cluster.client("node01");
  const Bytes payload = randomPayload(1000, 8);
  writer.writeFile("/f", payload);
  const auto located = writer.getBlockLocations("/f");
  cluster.dataNode("node01").store().corruptBlock(located[0].block.id, 5);
  EXPECT_EQ(cluster.client("node01").readFile("/f"), payload);
  // And the bad replica got reported.
  EXPECT_TRUE(cluster.nameNode()
                  .fsck()
                  .corrupt_blocks > 0 ||
              cluster.waitHealthy(15'000));
}

TEST(MiniDfsClusterTest, FrameCrcMismatchSweepsReplicaLikeChecksumError) {
  // Compressed at-rest replicas have two integrity layers: chunk CRCs over
  // the stored bytes and per-frame CRCs over the raw bytes. Poison one
  // replica so only the frame CRC can object (adoptStored recomputes chunk
  // CRCs over the bytes it is given — the transit-corruption shape), and
  // the read path must fall over to the good replica and report the bad
  // one exactly as a chunk-checksum failure would.
  Config conf = fastConf();
  conf.set("dfs.block.compression.codec", "mh-lz");
  conf.setInt("dfs.blocksize", 4096);
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = conf});
  auto writer = cluster.client("node01");
  Bytes payload;
  while (payload.size() < 3000) payload += "frame crc sweeps the replica ";
  writer.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());
  const auto located = writer.getBlockLocations("/f");

  // Find a single-bit corruption the frame CRC (not frame structure)
  // rejects, and adopt it on the local replica holder.
  const Bytes stream = codecEncode(CodecKind::kMhLz, payload);
  Bytes bad;
  for (size_t pos = kCodecHeaderBytes; pos < stream.size() && bad.empty();
       ++pos) {
    Bytes candidate = stream;
    candidate[pos] = static_cast<char>(candidate[pos] ^ 0x01);
    try {
      codecDecode(candidate);
    } catch (const ChecksumError&) {
      bad = candidate;
    } catch (const InvalidArgumentError&) {
    }
  }
  ASSERT_FALSE(bad.empty());
  cluster.dataNode("node01").store().adoptStored(located[0].block.id,
                                                 Buffer::copyOf(bad));

  // Local-first read hits the poisoned frame, falls over, still decodes.
  EXPECT_EQ(cluster.client("node01").readFile("/f"), payload);
  EXPECT_TRUE(cluster.nameNode().fsck().corrupt_blocks > 0 ||
              cluster.waitHealthy(15'000));
  // After the sweep converges the cluster is healthy and byte-exact.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.client().readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, NameNodeRestartSafeModeLifecycle) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  const Bytes payload = randomPayload(5000, 9);
  client.writeFile("/f", payload);
  ASSERT_TRUE(cluster.waitHealthy());

  cluster.restartNameNode();
  // Right after restart the NameNode is in safe mode (blocks known, no
  // locations); DataNode heartbeats re-register + re-report, lifting it.
  ASSERT_TRUE(cluster.waitOutOfSafeMode(15'000));
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.client().readFile("/f"), payload);
}

TEST(MiniDfsClusterTest, GhostDaemonBlocksPort) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  // A student exits without stopping the daemon: the port stays bound.
  cluster.dataNode("node01").abandon();
  auto store = std::make_shared<MemBlockStore>();
  DataNode fresh(cluster.conf(), cluster.network(), "node01", store,
                 "namenode");
  EXPECT_THROW(fresh.start(), AlreadyExistsError);
  // After the "scheduler cleanup" (stop() releases the port) it boots fine.
  cluster.dataNode("node01").stop();
  fresh.start();
  fresh.stop();
}

TEST(MiniDfsClusterTest, StoppedDataNodeCanRejoin) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 10));
  ASSERT_TRUE(cluster.waitHealthy());
  cluster.killDataNode("node02");
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  cluster.restartDataNode("node02");
  // The rejoined node re-registers; extra replicas (if its old copies
  // resurface) are trimmed by the over-replication handler.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  EXPECT_EQ(cluster.nameNode().liveDataNodes(), 3u);
}

TEST(MiniDfsClusterTest, AddDataNodeGrowsCluster) {
  MiniDfsCluster cluster({.num_datanodes = 1, .conf = fastConf()});
  const std::string fresh = cluster.addDataNode();
  EXPECT_EQ(fresh, "node02");
  EXPECT_EQ(cluster.nameNode().liveDataNodes(), 2u);
}

TEST(MiniDfsClusterTest, DeleteReclaimsReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 2, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(4096, 11));
  ASSERT_TRUE(cluster.waitHealthy());
  client.remove("/f", false);
  // Invalidation commands ride heartbeats; replicas disappear shortly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t replicas = 1;
  while (replicas > 0 && std::chrono::steady_clock::now() < deadline) {
    replicas = 0;
    for (const auto& host : cluster.dataNodeHosts()) {
      replicas += cluster.dataNode(host).store().listBlocks().size();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(replicas, 0u);
}

TEST(MiniDfsClusterTest, TwoRackClusterSpansRacksPerBlock) {
  Config conf = fastConf();
  conf.setInt("dfs.replication", 3);
  MiniDfsCluster cluster(
      {.num_datanodes = 6, .racks = 2, .conf = conf});
  // Write from a datanode host so the first replica is node-local.
  auto client = cluster.client("node01");
  client.writeFile("/f", randomPayload(8192, 17));
  ASSERT_TRUE(cluster.waitHealthy());
  for (const auto& lb : client.getBlockLocations("/f")) {
    ASSERT_EQ(lb.hosts.size(), 3u);
    std::set<std::string> racks;
    for (const auto& host : lb.hosts) racks.insert(cluster.rackOf(host));
    // The default policy: replicas span exactly two racks.
    EXPECT_EQ(racks.size(), 2u) << lb.block.id;
  }
  // The report shows the rack assignment.
  bool saw_rack = false;
  for (const auto& dn : cluster.nameNode().datanodeReport()) {
    saw_rack = saw_rack || dn.rack == "/rack1";
  }
  EXPECT_TRUE(saw_rack);
}

TEST(MiniDfsClusterTest, SetrepUpTriggersReplication) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 13));  // replication 2
  ASSERT_TRUE(cluster.waitHealthy());
  client.setReplication("/f", 3);
  // Under-replicated now; the monitor raises every block to 3 copies.
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  for (const auto& lb : client.getBlockLocations("/f")) {
    EXPECT_EQ(lb.hosts.size(), 3u);
  }
  EXPECT_EQ(client.getFileStatus("/f").replication, 3u);
}

TEST(MiniDfsClusterTest, SetrepDownTrimsExcessReplicas) {
  MiniDfsCluster cluster({.num_datanodes = 3, .conf = fastConf()});
  auto client = cluster.client();
  client.writeFile("/f", randomPayload(2048, 14));  // replication 2
  ASSERT_TRUE(cluster.waitHealthy());
  client.setReplication("/f", 1);
  ASSERT_TRUE(cluster.waitHealthy(15'000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool trimmed = false;
  while (!trimmed && std::chrono::steady_clock::now() < deadline) {
    trimmed = true;
    for (const auto& lb : client.getBlockLocations("/f")) {
      trimmed = trimmed && lb.hosts.size() == 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(trimmed);
  EXPECT_EQ(client.readFile("/f").size(), 2048u);
}

TEST(MiniDfsClusterTest, FileStoreClusterPersistsAcrossDataNodeRestart) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("mh_cluster_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    MiniDfsCluster cluster({.num_datanodes = 2,
                            .conf = fastConf(),
                            .use_file_store = true,
                            .store_root = root});
    auto client = cluster.client();
    client.writeFile("/persist", randomPayload(2000, 12));
    ASSERT_TRUE(cluster.waitHealthy());
    cluster.stopDataNode("node01");
    cluster.restartDataNode("node01");
    ASSERT_TRUE(cluster.waitHealthy(15'000));
    EXPECT_EQ(cluster.client().readFile("/persist").size(), 2000u);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace mh::hdfs

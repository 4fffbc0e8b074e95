#include "mh/hdfs/namenode.h"

#include <gtest/gtest.h>

#include "mh/common/error.h"

namespace mh::hdfs {
namespace {

// Drives the NameNode through its public API, playing the DataNode protocol
// by hand for deterministic control (no daemon threads: start() is not
// called, runMonitorOnce() stands in for the monitor).
class NameNodeTest : public ::testing::Test {
 protected:
  NameNodeTest()
      : network_(std::make_shared<net::Network>()),
        nn_(makeConf(), network_) {}

  static Config makeConf() {
    Config conf;
    conf.setInt("dfs.replication", 2);
    conf.setInt("dfs.blocksize", 1024);
    conf.setInt("dfs.namenode.heartbeat.expiry.ms", 100);
    return conf;
  }

  void registerNodes(int n) {
    for (int i = 1; i <= n; ++i) {
      nn_.registerDataNode("n" + std::to_string(i), 1 << 20);
    }
  }

  /// Simulates the write path for one block: every pipeline host reports
  /// blockReceived.
  LocatedBlock writeBlock(const std::string& path, uint64_t size) {
    const LocatedBlock located = nn_.addBlock(path, "client");
    for (const auto& host : located.hosts) {
      nn_.blockReceived(host, {located.block.id, size});
    }
    return located;
  }

  std::shared_ptr<net::Network> network_;
  NameNode nn_;
};

TEST_F(NameNodeTest, FreshNameNodeIsNotInSafeMode) {
  EXPECT_FALSE(nn_.inSafeMode());
}

TEST_F(NameNodeTest, NamespaceOpsWork) {
  nn_.mkdirs("/user/alice");
  EXPECT_TRUE(nn_.exists("/user/alice"));
  nn_.create("/user/alice/f");
  EXPECT_EQ(nn_.getFileStatus("/user/alice/f").replication, 2u);
  EXPECT_EQ(nn_.getFileStatus("/user/alice/f").block_size, 1024u);
  nn_.rename("/user/alice/f", "/user/alice/g");
  EXPECT_FALSE(nn_.exists("/user/alice/f"));
  EXPECT_TRUE(nn_.remove("/user/alice/g", false));
  EXPECT_FALSE(nn_.remove("/user/alice/g", false));
}

TEST_F(NameNodeTest, AddBlockNeedsLiveDataNodes) {
  nn_.create("/f");
  EXPECT_THROW(nn_.addBlock("/f", "client"), IoError);
}

TEST_F(NameNodeTest, AddBlockPlacesOnWriterWhenItIsADataNode) {
  registerNodes(3);
  nn_.create("/f");
  const LocatedBlock located = nn_.addBlock("/f", "n2");
  ASSERT_EQ(located.hosts.size(), 2u);
  EXPECT_EQ(located.hosts[0], "n2");
}

TEST_F(NameNodeTest, CompleteRecordsSizes) {
  registerNodes(2);
  nn_.create("/f");
  writeBlock("/f", 1024);
  writeBlock("/f", 500);
  nn_.completeFile("/f");
  EXPECT_EQ(nn_.getFileStatus("/f").length, 1524u);
  const auto located = nn_.getBlockLocations("/f");
  ASSERT_EQ(located.size(), 2u);
  EXPECT_EQ(located[0].offset, 0u);
  EXPECT_EQ(located[1].offset, 1024u);
  EXPECT_EQ(located[1].block.size, 500u);
  EXPECT_EQ(located[0].hosts.size(), 2u);
}

TEST_F(NameNodeTest, HeartbeatFromUnknownHostRequestsReregistration) {
  const HeartbeatReply reply = nn_.heartbeat("stranger", 1, 0, 0);
  EXPECT_TRUE(reply.reregister);
}

TEST_F(NameNodeTest, FirstHeartbeatRequestsBlockReport) {
  nn_.registerDataNode("n1", 100);
  HeartbeatReply reply = nn_.heartbeat("n1", 100, 0, 0);
  EXPECT_TRUE(reply.request_block_report);
  nn_.blockReport("n1", {});
  reply = nn_.heartbeat("n1", 100, 0, 0);
  EXPECT_FALSE(reply.request_block_report);
}

TEST_F(NameNodeTest, BlockReportInvalidatesUnknownBlocks) {
  nn_.registerDataNode("n1", 100);
  const auto invalid = nn_.blockReport("n1", {{777, 10}});
  EXPECT_EQ(invalid, std::vector<BlockId>{777});
}

TEST_F(NameNodeTest, HeartbeatExpiryMarksDeadAndReschedulesReplicas) {
  registerNodes(3);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  nn_.completeFile("/f");
  ASSERT_EQ(located.hosts.size(), 2u);

  // Only two of three nodes keep heartbeating; the replica holder that goes
  // silent must be declared dead.
  const std::string victim = located.hosts[0];
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (int i = 1; i <= 3; ++i) {
    const std::string host = "n" + std::to_string(i);
    if (host != victim) nn_.heartbeat(host, 1 << 20, 0, 0);
  }
  nn_.runMonitorOnce();

  const auto after = nn_.getBlockLocations("/f")[0].hosts;
  EXPECT_EQ(after.size(), 1u);
  EXPECT_NE(after[0], victim);

  // The monitor should have queued a replicate command on the survivor.
  const HeartbeatReply reply = nn_.heartbeat(after[0], 1 << 20, 0, 0);
  ASSERT_EQ(reply.commands.size(), 1u);
  EXPECT_EQ(reply.commands[0].kind, DataNodeCommand::Kind::kReplicate);
  EXPECT_EQ(reply.commands[0].block, located.block.id);
  ASSERT_EQ(reply.commands[0].targets.size(), 1u);
  EXPECT_NE(reply.commands[0].targets[0], victim);
  EXPECT_NE(reply.commands[0].targets[0], after[0]);
}

TEST_F(NameNodeTest, OverReplicationSchedulesDelete) {
  registerNodes(3);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  // A third, excess replica appears.
  std::string extra;
  for (int i = 1; i <= 3; ++i) {
    const std::string host = "n" + std::to_string(i);
    if (std::find(located.hosts.begin(), located.hosts.end(), host) ==
        located.hosts.end()) {
      extra = host;
    }
  }
  nn_.blockReceived(extra, {located.block.id, 100});
  EXPECT_EQ(nn_.getBlockLocations("/f")[0].hosts.size(), 3u);

  nn_.runMonitorOnce();
  EXPECT_EQ(nn_.getBlockLocations("/f")[0].hosts.size(), 2u);
}

TEST_F(NameNodeTest, BadBlockReportTriggersRepairThenInvalidate) {
  registerNodes(3);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  nn_.completeFile("/f");
  const std::string bad_host = located.hosts[0];
  nn_.reportBadBlock(located.block.id, bad_host);

  // The corrupt replica is no longer served to readers.
  auto hosts = nn_.getBlockLocations("/f")[0].hosts;
  EXPECT_EQ(hosts.size(), 1u);

  // Monitor schedules re-replication from the good copy.
  nn_.runMonitorOnce();
  const std::string good_host = hosts[0];
  const HeartbeatReply reply = nn_.heartbeat(good_host, 1 << 20, 0, 0);
  ASSERT_EQ(reply.commands.size(), 1u);
  EXPECT_EQ(reply.commands[0].kind, DataNodeCommand::Kind::kReplicate);
  // Target must not be the corrupt holder.
  EXPECT_NE(reply.commands[0].targets.at(0), bad_host);

  // Replica lands; now the corrupt copy is invalidated.
  nn_.blockReceived(reply.commands[0].targets[0], {located.block.id, 100});
  nn_.runMonitorOnce();
  const HeartbeatReply bad_reply = nn_.heartbeat(bad_host, 1 << 20, 0, 0);
  ASSERT_EQ(bad_reply.commands.size(), 1u);
  EXPECT_EQ(bad_reply.commands[0].kind, DataNodeCommand::Kind::kDelete);
  EXPECT_EQ(bad_reply.commands[0].block, located.block.id);
}

TEST_F(NameNodeTest, DeleteQueuesInvalidationOnReplicaHolders) {
  registerNodes(2);
  nn_.create("/f");
  const auto located = writeBlock("/f", 64);
  nn_.completeFile("/f");
  nn_.remove("/f", false);
  int delete_commands = 0;
  for (const auto& host : located.hosts) {
    for (const auto& cmd : nn_.heartbeat(host, 1 << 20, 0, 0).commands) {
      if (cmd.kind == DataNodeCommand::Kind::kDelete &&
          cmd.block == located.block.id) {
        ++delete_commands;
      }
    }
  }
  EXPECT_EQ(delete_commands, 2);
  EXPECT_EQ(nn_.totalBlocks(), 0u);
}

TEST_F(NameNodeTest, FsckClassifiesBlocks) {
  registerNodes(2);
  nn_.create("/healthy");
  writeBlock("/healthy", 100);
  nn_.completeFile("/healthy");

  nn_.create("/under");
  const auto under = nn_.addBlock("/under", "client");
  nn_.blockReceived(under.hosts[0], {under.block.id, 50});
  nn_.completeFile("/under");

  nn_.create("/missing");
  nn_.addBlock("/missing", "client");  // nobody reports it

  const FsckReport report = nn_.fsck();
  EXPECT_EQ(report.total_files, 3u);
  EXPECT_EQ(report.total_blocks, 3u);
  EXPECT_EQ(report.min_replication_blocks, 1u);
  EXPECT_EQ(report.under_replicated, 1u);
  EXPECT_EQ(report.missing_blocks, 1u);
  EXPECT_FALSE(report.healthy);
  EXPECT_NE(report.render().find("CORRUPT"), std::string::npos);
}

TEST_F(NameNodeTest, SafeModeBlocksMutationsAllowsReads) {
  registerNodes(1);
  nn_.create("/f");
  nn_.setSafeMode(true);
  EXPECT_THROW(nn_.create("/g"), IllegalStateError);
  EXPECT_THROW(nn_.mkdirs("/d"), IllegalStateError);
  EXPECT_THROW(nn_.remove("/f", false), IllegalStateError);
  EXPECT_THROW(nn_.addBlock("/f", "client"), IllegalStateError);
  EXPECT_TRUE(nn_.exists("/f"));  // reads fine
  nn_.setSafeMode(false);
  nn_.create("/g");
}

TEST_F(NameNodeTest, RestartEntersSafeModeUntilBlocksReported) {
  registerNodes(2);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  nn_.completeFile("/f");

  NameNode restarted(makeConf(), network_, "namenode2", nn_.saveImage());
  EXPECT_TRUE(restarted.inSafeMode());
  EXPECT_EQ(restarted.totalBlocks(), 1u);
  // Namespace survived; replica locations did not.
  EXPECT_TRUE(restarted.exists("/f"));
  EXPECT_TRUE(restarted.getBlockLocations("/f")[0].hosts.empty());

  // DataNodes re-register and report; safe mode lifts.
  restarted.registerDataNode(located.hosts[0], 1 << 20);
  restarted.blockReport(located.hosts[0], {{located.block.id, 100}});
  EXPECT_FALSE(restarted.inSafeMode());
  EXPECT_EQ(restarted.getBlockLocations("/f")[0].hosts.size(), 1u);
}

TEST_F(NameNodeTest, BlockReportDoesNotLaunderCorruptReplica) {
  registerNodes(2);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  nn_.completeFile("/f");
  const std::string bad_host = located.hosts[0];
  nn_.reportBadBlock(located.block.id, bad_host);
  // The corrupt holder re-reports the same replica: it must stay corrupt.
  nn_.blockReport(bad_host, {{located.block.id, 100}});
  const auto hosts = nn_.getBlockLocations("/f")[0].hosts;
  EXPECT_EQ(std::count(hosts.begin(), hosts.end(), bad_host), 0);
}

TEST_F(NameNodeTest, BlockReportInvalidatesReplicaOfTheWrongLength) {
  registerNodes(3);
  nn_.create("/f");
  const auto located = writeBlock("/f", 100);
  nn_.completeFile("/f");
  std::string other;
  for (const char* host : {"n1", "n2", "n3"}) {
    if (std::find(located.hosts.begin(), located.hosts.end(), host) ==
        located.hosts.end()) {
      other = host;
    }
  }
  // A replica under the same id but with another length is not this block.
  const auto invalid = nn_.blockReport(other, {{located.block.id, 357}});
  EXPECT_EQ(invalid, std::vector<BlockId>{located.block.id});
  const auto hosts = nn_.getBlockLocations("/f")[0].hosts;
  EXPECT_EQ(std::count(hosts.begin(), hosts.end(), other), 0);
  EXPECT_EQ(nn_.getBlockLocations("/f")[0].block.size, 100u);
  // The matching length is accepted.
  EXPECT_TRUE(nn_.blockReport(other, {{located.block.id, 100}}).empty());
  EXPECT_EQ(nn_.getBlockLocations("/f")[0].hosts.size(), 3u);
}

TEST_F(NameNodeTest, UnderConstructionBlockIsRepairedOnlyAfterComplete) {
  registerNodes(3);
  nn_.create("/f");
  const LocatedBlock located = nn_.addBlock("/f", "client");
  ASSERT_EQ(located.hosts.size(), 2u);
  // Only the head has reported: the pipeline is still writing the rest.
  nn_.blockReceived(located.hosts[0], {located.block.id, 100});
  nn_.runMonitorOnce();
  EXPECT_TRUE(nn_.heartbeat(located.hosts[0], 1 << 20, 0, 0).commands.empty());
  // Once the writer completes the file, the short block is repaired.
  nn_.completeFile("/f");
  nn_.runMonitorOnce();
  const HeartbeatReply reply = nn_.heartbeat(located.hosts[0], 1 << 20, 0, 0);
  ASSERT_EQ(reply.commands.size(), 1u);
  EXPECT_EQ(reply.commands[0].kind, DataNodeCommand::Kind::kReplicate);
  EXPECT_EQ(reply.commands[0].block, located.block.id);
}

TEST_F(NameNodeTest, ImageRestartKeepsTheBlockIdHighWaterMark) {
  registerNodes(2);
  nn_.create("/gone");
  const auto gone = writeBlock("/gone", 100);
  nn_.completeFile("/gone");
  nn_.remove("/gone", false);

  NameNode restarted(makeConf(), network_, "namenode2", nn_.saveImage());
  EXPECT_FALSE(restarted.inSafeMode());
  restarted.registerDataNode("n1", 1 << 20);
  restarted.create("/fresh");
  EXPECT_GT(restarted.addBlock("/fresh", "client").block.id, gone.block.id);
}

TEST_F(NameNodeTest, DataNodeReportShowsLiveness) {
  registerNodes(2);
  const auto report = nn_.datanodeReport();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_TRUE(report[0].alive);
  EXPECT_EQ(nn_.liveDataNodes(), 2u);
}

}  // namespace
}  // namespace mh::hdfs

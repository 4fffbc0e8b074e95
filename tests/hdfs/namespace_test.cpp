#include "mh/hdfs/namespace.h"

#include <gtest/gtest.h>

#include "mh/common/error.h"

namespace mh::hdfs {
namespace {

TEST(PathTest, ParseAndNormalize) {
  EXPECT_EQ(normalizePath("/"), "/");
  EXPECT_EQ(normalizePath("//a///b/"), "/a/b");
  EXPECT_EQ(parsePath("/a/b").size(), 2u);
  EXPECT_TRUE(parsePath("/").empty());
}

TEST(PathTest, RejectsBadPaths) {
  EXPECT_THROW(parsePath(""), InvalidArgumentError);
  EXPECT_THROW(parsePath("relative/path"), InvalidArgumentError);
  EXPECT_THROW(parsePath("/a/../b"), InvalidArgumentError);
  EXPECT_THROW(parsePath("/a/./b"), InvalidArgumentError);
}

TEST(NamespaceTest, RootExists) {
  Namespace ns;
  EXPECT_TRUE(ns.exists("/"));
  EXPECT_TRUE(ns.isDirectory("/"));
  EXPECT_EQ(ns.directoryCount(), 1u);
  EXPECT_EQ(ns.fileCount(), 0u);
}

TEST(NamespaceTest, MkdirsCreatesAncestors) {
  Namespace ns;
  ns.mkdirs("/user/alice/data");
  EXPECT_TRUE(ns.isDirectory("/user"));
  EXPECT_TRUE(ns.isDirectory("/user/alice"));
  EXPECT_TRUE(ns.isDirectory("/user/alice/data"));
  EXPECT_EQ(ns.directoryCount(), 4u);
  ns.mkdirs("/user/alice/data");  // idempotent
  EXPECT_EQ(ns.directoryCount(), 4u);
}

TEST(NamespaceTest, CreateFileAndBlocks) {
  Namespace ns;
  ns.createFile("/data/file.txt", 3, 1024);
  EXPECT_TRUE(ns.exists("/data/file.txt"));
  EXPECT_FALSE(ns.isDirectory("/data/file.txt"));
  EXPECT_FALSE(ns.isComplete("/data/file.txt"));

  ns.addBlock("/data/file.txt", {1, 1024});
  ns.addBlock("/data/file.txt", {2, 500});
  ns.completeFile("/data/file.txt");

  const auto status = ns.getFileStatus("/data/file.txt");
  EXPECT_EQ(status.length, 1524u);
  EXPECT_EQ(status.replication, 3u);
  EXPECT_EQ(status.block_size, 1024u);
  EXPECT_TRUE(ns.isComplete("/data/file.txt"));
  EXPECT_EQ(ns.fileBlocks("/data/file.txt").size(), 2u);
}

TEST(NamespaceTest, AddBlockAfterCompleteThrows) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  ns.completeFile("/f");
  EXPECT_THROW(ns.addBlock("/f", {1, 10}), IllegalStateError);
}

TEST(NamespaceTest, CreateOverExistingThrows) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  EXPECT_THROW(ns.createFile("/f", 1, 64), AlreadyExistsError);
  ns.mkdirs("/d");
  EXPECT_THROW(ns.createFile("/d", 1, 64), AlreadyExistsError);
}

TEST(NamespaceTest, CreateRejectsBadParams) {
  Namespace ns;
  EXPECT_THROW(ns.createFile("/f", 0, 64), InvalidArgumentError);
  EXPECT_THROW(ns.createFile("/f", 1, 0), InvalidArgumentError);
  EXPECT_THROW(ns.createFile("/", 1, 64), InvalidArgumentError);
}

TEST(NamespaceTest, FileUnderFileThrows) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  EXPECT_THROW(ns.createFile("/f/child", 1, 64), AlreadyExistsError);
}

TEST(NamespaceTest, ListStatusSorted) {
  Namespace ns;
  ns.createFile("/d/b", 1, 64);
  ns.createFile("/d/a", 1, 64);
  ns.mkdirs("/d/c");
  const auto entries = ns.listStatus("/d");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].path, "/d/a");
  EXPECT_EQ(entries[1].path, "/d/b");
  EXPECT_EQ(entries[2].path, "/d/c");
  EXPECT_TRUE(entries[2].is_dir);
}

TEST(NamespaceTest, ListStatusOfFileReturnsItself) {
  Namespace ns;
  ns.createFile("/solo", 2, 64);
  const auto entries = ns.listStatus("/solo");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "/solo");
}

TEST(NamespaceTest, RemoveFileReturnsBlocks) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  ns.addBlock("/f", {7, 64});
  ns.addBlock("/f", {8, 10});
  const auto freed = ns.remove("/f", false);
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(freed[0].id, 7u);
  EXPECT_FALSE(ns.exists("/f"));
  EXPECT_EQ(ns.fileCount(), 0u);
}

TEST(NamespaceTest, RemoveNonEmptyDirNeedsRecursive) {
  Namespace ns;
  ns.createFile("/d/f1", 1, 64);
  ns.addBlock("/d/f1", {1, 5});
  ns.createFile("/d/sub/f2", 1, 64);
  ns.addBlock("/d/sub/f2", {2, 5});
  EXPECT_THROW(ns.remove("/d", false), IllegalStateError);
  const auto freed = ns.remove("/d", true);
  EXPECT_EQ(freed.size(), 2u);
  EXPECT_EQ(ns.fileCount(), 0u);
  EXPECT_EQ(ns.directoryCount(), 1u);  // only root left
}

TEST(NamespaceTest, RemoveMissingThrows) {
  Namespace ns;
  EXPECT_THROW(ns.remove("/ghost", false), NotFoundError);
  EXPECT_THROW(ns.remove("/", true), InvalidArgumentError);
}

TEST(NamespaceTest, RenameFile) {
  Namespace ns;
  ns.createFile("/a/src", 1, 64);
  ns.addBlock("/a/src", {1, 9});
  ns.mkdirs("/b");
  ns.rename("/a/src", "/b/dst");
  EXPECT_FALSE(ns.exists("/a/src"));
  ASSERT_TRUE(ns.exists("/b/dst"));
  EXPECT_EQ(ns.fileBlocks("/b/dst").size(), 1u);
}

TEST(NamespaceTest, RenameDirectoryMovesSubtree) {
  Namespace ns;
  ns.createFile("/old/deep/f", 1, 64);
  ns.rename("/old", "/new");
  EXPECT_TRUE(ns.exists("/new/deep/f"));
  EXPECT_FALSE(ns.exists("/old"));
}

TEST(NamespaceTest, RenameErrors) {
  Namespace ns;
  ns.createFile("/a", 1, 64);
  ns.createFile("/b", 1, 64);
  EXPECT_THROW(ns.rename("/a", "/b"), AlreadyExistsError);
  EXPECT_THROW(ns.rename("/ghost", "/c"), NotFoundError);
  EXPECT_THROW(ns.rename("/a", "/no/parent/here"), NotFoundError);
}

TEST(NamespaceTest, ListFilesRecursive) {
  Namespace ns;
  ns.createFile("/x/1", 1, 64);
  ns.createFile("/x/y/2", 1, 64);
  ns.createFile("/z", 1, 64);
  const auto files = ns.listFilesRecursive("/");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "/x/1");
  EXPECT_EQ(files[1], "/x/y/2");
  EXPECT_EQ(files[2], "/z");
  EXPECT_EQ(ns.listFilesRecursive("/x").size(), 2u);
}

TEST(NamespaceTest, SetFileBlocksUpdatesSizes) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  ns.addBlock("/f", {1, 0});
  ns.setFileBlocks("/f", {{1, 42}});
  EXPECT_EQ(ns.getFileStatus("/f").length, 42u);
}

TEST(NamespaceTest, ImageRoundTrip) {
  Namespace ns;
  ns.mkdirs("/empty/dir");
  ns.createFile("/data/f1", 3, 128);
  ns.addBlock("/data/f1", {1, 128});
  ns.addBlock("/data/f1", {2, 60});
  ns.completeFile("/data/f1");
  ns.createFile("/data/open", 2, 64);  // under construction

  const Bytes image = ns.saveImage();
  Namespace restored = Namespace::loadImage(image);

  EXPECT_EQ(restored.fileCount(), 2u);
  EXPECT_EQ(restored.directoryCount(), ns.directoryCount());
  EXPECT_TRUE(restored.isDirectory("/empty/dir"));
  EXPECT_TRUE(restored.isComplete("/data/f1"));
  EXPECT_FALSE(restored.isComplete("/data/open"));
  const auto status = restored.getFileStatus("/data/f1");
  EXPECT_EQ(status.length, 188u);
  EXPECT_EQ(status.replication, 3u);
  ASSERT_EQ(restored.fileBlocks("/data/f1").size(), 2u);
  EXPECT_EQ(restored.fileBlocks("/data/f1")[1].size, 60u);
}

TEST(NamespaceTest, ImageHeaderCarriesTheNextBlockId) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  ns.addBlock("/f", {3, 64});
  BlockId next_block_id = 0;
  const Namespace restored =
      Namespace::loadImage(ns.saveImage(42), &next_block_id);
  EXPECT_EQ(next_block_id, 42u);
  EXPECT_EQ(restored.fileBlocks("/f").at(0).id, 3u);
}

TEST(NamespaceTest, HeaderlessImageStillLoads) {
  // An image written before the versioned header existed (the bare tree):
  // /a/f holds blocks 5 (64 bytes) and 9 (10 bytes) and is complete;
  // /open is under construction.
  const std::string hex =
      "012f01aae6cb87ab6802016101aae6cb87ab6801016600aae6cb87ab68024001020540"
      "090a046f70656e00aae6cb87ab6801400000";
  Bytes image;
  for (size_t i = 0; i < hex.size(); i += 2) {
    image.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  BlockId next_block_id = 77;
  const Namespace ns = Namespace::loadImage(image, &next_block_id);
  EXPECT_EQ(next_block_id, 0u);  // unknown: the caller falls back
  EXPECT_TRUE(ns.isComplete("/a/f"));
  EXPECT_FALSE(ns.isComplete("/open"));
  EXPECT_EQ(ns.getFileStatus("/a/f").length, 74u);
  EXPECT_EQ(ns.fileBlocks("/a/f"),
            (std::vector<Block>{{5, 64}, {9, 10}}));
}

TEST(NamespaceTest, UnknownImageVersionIsRejected) {
  Namespace ns;
  Bytes image = ns.saveImage(1);
  image[7] = 3;  // the version byte follows the 7-byte magic
  EXPECT_THROW(Namespace::loadImage(image), InvalidArgumentError);
}

TEST(NamespaceTest, CorruptImageThrows) {
  Namespace ns;
  ns.createFile("/f", 1, 64);
  Bytes image = ns.saveImage();
  image += "junk";
  EXPECT_THROW(Namespace::loadImage(image), InvalidArgumentError);
}

TEST(NamespaceTest, TrailingBytesErrorNamesOffsetAndSize) {
  // The error must say WHERE the tree ended and how big the image is —
  // "trailing bytes" alone is useless when diagnosing a mangled fsimage.
  Namespace ns;
  ns.createFile("/f", 1, 64);
  const Bytes image = ns.saveImage();
  Bytes padded = image;
  padded += "junk";
  try {
    Namespace::loadImage(padded);
    FAIL() << "loadImage accepted trailing bytes";
  } catch (const InvalidArgumentError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tree ended at byte " + std::to_string(image.size())),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("of " + std::to_string(padded.size())),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace mh::hdfs

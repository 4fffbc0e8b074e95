#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mh/common/bytes.h"
#include "mh/hdfs/types.h"

/// \file namespace.h
/// The NameNode's in-memory file system tree ("block metadata lives in
/// memory" — paper Figure 2). Pure data structure: no locking (the NameNode
/// serializes access under its namesystem lock) and no block-location
/// knowledge (that's the BlockManager's job).
///
/// Paths are absolute, '/'-separated, with no trailing slash except the
/// root "/" itself.

namespace mh::hdfs {

/// Splits and validates an absolute path into components.
/// Throws InvalidArgumentError for relative/empty/".."-containing paths.
std::vector<std::string> parsePath(std::string_view path);

/// Normalizes an absolute path (collapses duplicate slashes).
std::string normalizePath(std::string_view path);

class Namespace {
 public:
  Namespace();

  /// Creates a directory and any missing ancestors (mkdir -p).
  /// Throws AlreadyExistsError if the path names an existing *file*.
  void mkdirs(std::string_view path);

  /// Creates an empty, under-construction file. Parent directories are
  /// created as needed (Hadoop semantics for create()).
  /// Throws AlreadyExistsError if the path already exists.
  void createFile(std::string_view path, uint16_t replication,
                  uint64_t block_size);

  /// Appends a block to an under-construction file.
  void addBlock(std::string_view path, Block block);

  /// Marks a file complete; subsequent addBlock calls throw.
  void completeFile(std::string_view path);

  bool isComplete(std::string_view path) const;

  bool exists(std::string_view path) const;
  bool isDirectory(std::string_view path) const;

  FileStatus getFileStatus(std::string_view path) const;

  /// Children of a directory (or the file itself), sorted by name.
  std::vector<FileStatus> listStatus(std::string_view path) const;

  /// The file's blocks in order. Throws for directories.
  const std::vector<Block>& fileBlocks(std::string_view path) const;

  /// Replaces the file's block list (used at completeFile time to record
  /// finalized block sizes).
  void setFileBlocks(std::string_view path, std::vector<Block> blocks);

  /// Changes a file's target replication factor (hadoop fs -setrep).
  void setReplication(std::string_view path, uint16_t replication);

  /// Removes a file or directory. Non-empty directories require
  /// `recursive`. Returns every block freed by the removal.
  std::vector<Block> remove(std::string_view path, bool recursive);

  /// Moves a file or directory. Destination must not exist; destination
  /// parent must be an existing directory.
  void rename(std::string_view from, std::string_view to);

  /// Paths of all *files* under (and including) `path`, depth-first sorted.
  std::vector<std::string> listFilesRecursive(std::string_view path) const;

  uint64_t fileCount() const { return file_count_; }
  uint64_t directoryCount() const { return dir_count_; }

  /// Serializes the whole tree — the FsImage used to restart a NameNode.
  /// The image starts with a versioned header that carries
  /// `next_block_id`, the NameNode's block-id high-water mark: ids of
  /// deleted files are not in the tree, yet a DataNode that missed the
  /// delete may still hold their replicas, so a restart must not re-issue
  /// them.
  Bytes saveImage(BlockId next_block_id = 0) const;

  /// Rebuilds a namespace from saveImage() output. Images written before
  /// the header existed (a bare tree) still load. When `next_block_id` is
  /// given it receives the header's high-water mark (0 for a headerless
  /// image).
  static Namespace loadImage(std::string_view image,
                             BlockId* next_block_id = nullptr);

 private:
  struct INode {
    std::string name;
    bool is_dir = false;
    int64_t mtime_ms = 0;
    // Directory state. Keys are views into each child's own `name` — the
    // string is stored once per inode (interning that matters at the
    // million-entry scale). Safe because inodes are heap-allocated behind
    // unique_ptr and a name only changes on rename, which erases and
    // re-inserts the entry.
    std::map<std::string_view, std::unique_ptr<INode>> children;
    // File state:
    std::vector<Block> blocks;
    uint16_t replication = 0;
    uint64_t block_size = 0;
    bool complete = false;
  };

  const INode* find(std::string_view path) const;
  INode* find(std::string_view path);
  INode* findFile(std::string_view path);
  const INode* findFile(std::string_view path) const;
  INode* ensureDirs(const std::vector<std::string>& parts, size_t count);
  static uint64_t fileLength(const INode& node);
  static FileStatus statusOf(const INode& node, std::string path);
  void collectFiles(const INode& node, const std::string& prefix,
                    std::vector<std::string>& out) const;
  static void saveNode(const INode& node, ByteWriter& w);
  static std::unique_ptr<INode> loadNode(ByteReader& r, uint64_t& files,
                                         uint64_t& dirs);

  std::unique_ptr<INode> root_;
  uint64_t file_count_ = 0;
  uint64_t dir_count_ = 1;  // root
};

}  // namespace mh::hdfs

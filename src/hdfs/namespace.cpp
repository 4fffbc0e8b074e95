#include "mh/hdfs/namespace.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mh/common/error.h"
#include "mh/common/strings.h"

namespace mh::hdfs {

namespace {

int64_t nowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<std::string> parsePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    throw InvalidArgumentError("path must be absolute: '" + std::string(path) +
                               "'");
  }
  std::vector<std::string> parts;
  for (const auto& part : splitString(path.substr(1), '/')) {
    if (part.empty()) continue;  // collapse duplicate slashes
    if (part == "." || part == "..") {
      throw InvalidArgumentError("path may not contain '.' or '..': " +
                                 std::string(path));
    }
    parts.push_back(part);
  }
  return parts;
}

std::string normalizePath(std::string_view path) {
  const auto parts = parsePath(path);
  if (parts.empty()) return "/";
  std::string out;
  for (const auto& part : parts) {
    out.push_back('/');
    out.append(part);
  }
  return out;
}

Namespace::Namespace() : root_(std::make_unique<INode>()) {
  root_->name = "/";
  root_->is_dir = true;
  root_->mtime_ms = nowMillis();
}

const Namespace::INode* Namespace::find(std::string_view path) const {
  const INode* node = root_.get();
  for (const auto& part : parsePath(path)) {
    if (!node->is_dir) return nullptr;
    const auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Namespace::INode* Namespace::find(std::string_view path) {
  return const_cast<INode*>(std::as_const(*this).find(path));
}

Namespace::INode* Namespace::findFile(std::string_view path) {
  INode* node = find(path);
  if (node == nullptr) {
    throw NotFoundError("no such file: " + std::string(path));
  }
  if (node->is_dir) {
    throw InvalidArgumentError("is a directory: " + std::string(path));
  }
  return node;
}

const Namespace::INode* Namespace::findFile(std::string_view path) const {
  return const_cast<Namespace*>(this)->findFile(path);
}

Namespace::INode* Namespace::ensureDirs(const std::vector<std::string>& parts,
                                        size_t count) {
  INode* node = root_.get();
  for (size_t i = 0; i < count; ++i) {
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) {
      auto child = std::make_unique<INode>();
      child->name = parts[i];
      child->is_dir = true;
      child->mtime_ms = nowMillis();
      const std::string_view key = child->name;  // interned: view into inode
      it = node->children.emplace(key, std::move(child)).first;
      ++dir_count_;
    } else if (!it->second->is_dir) {
      throw AlreadyExistsError("not a directory: " + parts[i]);
    }
    node = it->second.get();
  }
  return node;
}

void Namespace::mkdirs(std::string_view path) {
  const auto parts = parsePath(path);
  ensureDirs(parts, parts.size());
}

void Namespace::createFile(std::string_view path, uint16_t replication,
                           uint64_t block_size) {
  if (replication == 0) throw InvalidArgumentError("replication must be >= 1");
  if (block_size == 0) throw InvalidArgumentError("block size must be >= 1");
  const auto parts = parsePath(path);
  if (parts.empty()) throw InvalidArgumentError("cannot create file at /");
  INode* parent = ensureDirs(parts, parts.size() - 1);
  if (parent->children.contains(parts.back())) {
    throw AlreadyExistsError("path exists: " + std::string(path));
  }
  auto file = std::make_unique<INode>();
  file->name = parts.back();
  file->is_dir = false;
  file->replication = replication;
  file->block_size = block_size;
  file->mtime_ms = nowMillis();
  const std::string_view key = file->name;
  parent->children.emplace(key, std::move(file));
  ++file_count_;
}

void Namespace::addBlock(std::string_view path, Block block) {
  INode* file = findFile(path);
  if (file->complete) {
    throw IllegalStateError("file is complete: " + std::string(path));
  }
  file->blocks.push_back(block);
  file->mtime_ms = nowMillis();
}

void Namespace::completeFile(std::string_view path) {
  INode* file = findFile(path);
  file->complete = true;
  file->mtime_ms = nowMillis();
}

bool Namespace::isComplete(std::string_view path) const {
  return findFile(path)->complete;
}

bool Namespace::exists(std::string_view path) const {
  return find(path) != nullptr;
}

bool Namespace::isDirectory(std::string_view path) const {
  const INode* node = find(path);
  return node != nullptr && node->is_dir;
}

uint64_t Namespace::fileLength(const INode& node) {
  uint64_t total = 0;
  for (const Block& block : node.blocks) total += block.size;
  return total;
}

FileStatus Namespace::statusOf(const INode& node, std::string path) {
  FileStatus status;
  status.path = std::move(path);
  status.is_dir = node.is_dir;
  status.mtime_ms = node.mtime_ms;
  if (!node.is_dir) {
    status.length = fileLength(node);
    status.replication = node.replication;
    status.block_size = node.block_size;
  }
  return status;
}

FileStatus Namespace::getFileStatus(std::string_view path) const {
  const INode* node = find(path);
  if (node == nullptr) {
    throw NotFoundError("no such path: " + std::string(path));
  }
  return statusOf(*node, normalizePath(path));
}

std::vector<FileStatus> Namespace::listStatus(std::string_view path) const {
  const INode* node = find(path);
  if (node == nullptr) {
    throw NotFoundError("no such path: " + std::string(path));
  }
  const std::string base = normalizePath(path);
  std::vector<FileStatus> out;
  if (!node->is_dir) {
    out.push_back(statusOf(*node, base));
    return out;
  }
  for (const auto& [name, child] : node->children) {
    out.push_back(statusOf(
        *child, base == "/" ? "/" + child->name : base + "/" + child->name));
  }
  return out;
}

const std::vector<Block>& Namespace::fileBlocks(std::string_view path) const {
  return findFile(path)->blocks;
}

void Namespace::setFileBlocks(std::string_view path,
                              std::vector<Block> blocks) {
  findFile(path)->blocks = std::move(blocks);
}

void Namespace::setReplication(std::string_view path, uint16_t replication) {
  if (replication == 0) throw InvalidArgumentError("replication must be >= 1");
  findFile(path)->replication = replication;
}

std::vector<Block> Namespace::remove(std::string_view path, bool recursive) {
  const auto parts = parsePath(path);
  if (parts.empty()) throw InvalidArgumentError("cannot remove /");
  INode* parent = root_.get();
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    const auto it = parent->children.find(parts[i]);
    if (it == parent->children.end() || !it->second->is_dir) {
      throw NotFoundError("no such path: " + std::string(path));
    }
    parent = it->second.get();
  }
  const auto it = parent->children.find(parts.back());
  if (it == parent->children.end()) {
    throw NotFoundError("no such path: " + std::string(path));
  }
  INode* victim = it->second.get();
  if (victim->is_dir && !victim->children.empty() && !recursive) {
    throw IllegalStateError("directory not empty: " + std::string(path));
  }
  std::vector<Block> freed;
  // Collect freed blocks and fix counters over the whole subtree.
  std::vector<const INode*> stack{victim};
  while (!stack.empty()) {
    const INode* node = stack.back();
    stack.pop_back();
    if (node->is_dir) {
      --dir_count_;
      for (const auto& [name, child] : node->children) {
        stack.push_back(child.get());
      }
    } else {
      --file_count_;
      freed.insert(freed.end(), node->blocks.begin(), node->blocks.end());
    }
  }
  parent->children.erase(it);
  parent->mtime_ms = nowMillis();
  return freed;
}

void Namespace::rename(std::string_view from, std::string_view to) {
  const auto from_parts = parsePath(from);
  const auto to_parts = parsePath(to);
  if (from_parts.empty()) throw InvalidArgumentError("cannot rename /");
  if (to_parts.empty()) throw InvalidArgumentError("cannot rename onto /");
  if (exists(to)) throw AlreadyExistsError("destination exists: " + std::string(to));

  INode* from_parent = root_.get();
  for (size_t i = 0; i + 1 < from_parts.size(); ++i) {
    const auto it = from_parent->children.find(from_parts[i]);
    if (it == from_parent->children.end() || !it->second->is_dir) {
      throw NotFoundError("no such path: " + std::string(from));
    }
    from_parent = it->second.get();
  }
  const auto from_it = from_parent->children.find(from_parts.back());
  if (from_it == from_parent->children.end()) {
    throw NotFoundError("no such path: " + std::string(from));
  }

  std::string to_parent_path = "/";
  for (size_t i = 0; i + 1 < to_parts.size(); ++i) {
    to_parent_path += to_parts[i];
    if (i + 2 < to_parts.size()) to_parent_path += "/";
  }
  INode* to_parent = find(to_parent_path);
  if (to_parent == nullptr || !to_parent->is_dir) {
    throw NotFoundError("destination parent missing: " + to_parent_path);
  }

  auto node = std::move(from_it->second);
  from_parent->children.erase(from_it);
  node->name = to_parts.back();
  node->mtime_ms = nowMillis();
  const std::string_view key = node->name;
  to_parent->children.emplace(key, std::move(node));
}

void Namespace::collectFiles(const INode& node, const std::string& prefix,
                             std::vector<std::string>& out) const {
  if (!node.is_dir) {
    out.push_back(prefix);
    return;
  }
  for (const auto& [name, child] : node.children) {
    collectFiles(
        *child, prefix == "/" ? "/" + child->name : prefix + "/" + child->name,
        out);
  }
}

std::vector<std::string> Namespace::listFilesRecursive(
    std::string_view path) const {
  const INode* node = find(path);
  if (node == nullptr) {
    throw NotFoundError("no such path: " + std::string(path));
  }
  std::vector<std::string> out;
  collectFiles(*node, normalizePath(path), out);
  std::sort(out.begin(), out.end());
  return out;
}

void Namespace::saveNode(const INode& node, ByteWriter& w) {
  w.writeBytes(node.name);
  w.writeBool(node.is_dir);
  w.writeVarI64(node.mtime_ms);
  if (node.is_dir) {
    w.writeVarU64(node.children.size());
    for (const auto& [name, child] : node.children) saveNode(*child, w);
  } else {
    w.writeVarU64(node.replication);
    w.writeVarU64(node.block_size);
    w.writeBool(node.complete);
    w.writeVarU64(node.blocks.size());
    for (const Block& block : node.blocks) {
      w.writeVarU64(block.id);
      w.writeVarU64(block.size);
    }
  }
}

std::unique_ptr<Namespace::INode> Namespace::loadNode(ByteReader& r,
                                                      uint64_t& files,
                                                      uint64_t& dirs) {
  auto node = std::make_unique<INode>();
  node->name = r.readString();
  node->is_dir = r.readBool();
  node->mtime_ms = r.readVarI64();
  if (node->is_dir) {
    ++dirs;
    const uint64_t n = r.readVarU64();
    for (uint64_t i = 0; i < n; ++i) {
      auto child = loadNode(r, files, dirs);
      const std::string_view key = child->name;
      node->children.emplace(key, std::move(child));
    }
  } else {
    ++files;
    node->replication = static_cast<uint16_t>(r.readVarU64());
    node->block_size = r.readVarU64();
    node->complete = r.readBool();
    const uint64_t n = r.readVarU64();
    node->blocks.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Block block;
      block.id = r.readVarU64();
      block.size = r.readVarU64();
      node->blocks.push_back(block);
    }
  }
  return node;
}

namespace {
// Version 2 image header: magic, version byte, block-id high-water mark. A
// version 1 image is the bare tree, which starts with the root's name "/"
// (length byte 1, then '/'), so it can never be mistaken for the magic.
constexpr std::string_view kImageMagic = "MHFSIMG";
constexpr uint8_t kImageVersion = 2;
}  // namespace

Bytes Namespace::saveImage(BlockId next_block_id) const {
  Bytes out;
  ByteWriter w(out);
  w.writeRaw(kImageMagic);
  w.writeU8(kImageVersion);
  w.writeVarU64(next_block_id);
  saveNode(*root_, w);
  return out;
}

Namespace Namespace::loadImage(std::string_view image,
                               BlockId* next_block_id) {
  ByteReader r(image);
  BlockId next_id = 0;
  if (image.starts_with(kImageMagic)) {
    r.readRaw(kImageMagic.size());
    const uint8_t version = r.readU8();
    if (version != kImageVersion) {
      throw InvalidArgumentError("unsupported fsimage version " +
                                 std::to_string(version));
    }
    next_id = r.readVarU64();
  }
  if (next_block_id != nullptr) *next_block_id = next_id;
  Namespace ns;
  uint64_t files = 0;
  uint64_t dirs = 0;
  ns.root_ = loadNode(r, files, dirs);
  if (!r.atEnd()) {
    throw InvalidArgumentError(
        "trailing bytes in fsimage: tree ended at byte " +
        std::to_string(r.position()) + " of " + std::to_string(image.size()));
  }
  ns.file_count_ = files;
  ns.dir_count_ = dirs;
  return ns;
}

}  // namespace mh::hdfs

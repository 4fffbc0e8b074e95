#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mh/common/buffer.h"
#include "mh/common/bytes.h"
#include "mh/common/codec.h"
#include "mh/hdfs/types.h"

/// \file block_store.h
/// A DataNode's local replica storage. Replicas carry CRC-32C checksums per
/// 512-byte chunk (like HDFS's .meta sidecars); every read re-verifies and
/// throws ChecksumError on a mismatch, which is what drives the
/// corrupt-replica / re-replication machinery upstream.
///
/// Writes and reads move refcounted BufferViews (buffer.h). MemBlockStore
/// adopts the view it is given as the replica — on the write pipeline that
/// is a slice of the RPC request buffer, so every replica of a block in the
/// process shares the client's one copy — and serves views of it back, so
/// zero payload bytes move on either side. FileBlockStore writes the view
/// to disk and wraps each freshly read file. Replicas are immutable once
/// written; corruptBlock is copy-on-write so neither outstanding views nor
/// replicas sharing the buffer ever see a mutation.
///
/// Compression (codec.h): when a codec is configured, writeBlock encodes
/// the payload into a framed stream and the store holds only the *stored*
/// (compressed) bytes — chunk checksums, the verified-once cache, usedBytes,
/// scanAll, and replication all operate on that resident form. readBlock
/// decodes into a fresh buffer; readBlockRange decodes only the frames
/// covering the range. blockSize always reports the RAW (logical) size the
/// namespace accounts in; storedSize reports the resident bytes.
///
/// Two implementations: MemBlockStore (fast, used by most tests and the
/// mini-cluster) and FileBlockStore (blk_<id> + blk_<id>.meta files under a
/// root directory — the "physical view at the Linux FS" from the paper's
/// Figure 2).

namespace mh::hdfs {

/// Checksum chunk width, bytes.
inline constexpr size_t kChecksumChunk = 512;

/// Computes the per-chunk CRC vector for a replica payload.
std::vector<uint32_t> chunkChecksums(std::string_view data);

/// Verifies data against stored chunk CRCs; throws ChecksumError naming
/// `block_id` on the first mismatching chunk.
void verifyChunks(BlockId block_id, std::string_view data,
                  const std::vector<uint32_t>& crcs);

/// A chunk-verified replica in its resident (possibly compressed) form.
struct StoredReplica {
  BufferView stored;       ///< the resident bytes, checksum-verified
  uint64_t raw_size = 0;   ///< logical payload size after decoding
  CodecKind codec = CodecKind::kNone;  ///< how `stored` is encoded
};

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  /// Configures at-rest compression (`dfs.block.compression.codec`). Blocks
  /// written afterwards are stored as framed streams; blocks already stored
  /// raw remain readable. `metrics`/`trace` (optional) route the codec's
  /// encode/decode histograms and COMPRESS/DECOMPRESS spans.
  void configureCodec(CodecKind codec, MetricsRegistry* metrics = nullptr,
                      TraceCollector* trace = nullptr,
                      std::string component = "blockstore");
  CodecKind codec() const { return codec_; }

  /// Stores a replica of the RAW payload, encoding it first when a codec is
  /// configured; overwrites any previous replica of the same block. Without
  /// a codec the view itself becomes the replica (no copy).
  void writeBlock(BlockId id, BufferView data);

  /// Copying convenience for callers that hold plain bytes rather than a
  /// buffer (tests, tools): copies once, then writeBlock(id, view).
  void writeBlock(BlockId id, std::string_view data) {
    writeBlock(id, BufferView(Buffer::copyOf(data)));
  }

  /// Adopts an already-encoded (or raw) replica byte-for-byte and without a
  /// copy — the replication receive path, which must never re-encode.
  /// Framed payloads are structurally validated to recover the raw size;
  /// their per-frame CRCs still guard the payload end-to-end (chunk
  /// checksums are computed over the wire bytes, so corruption picked up in
  /// transit is caught at decode, not masked by a fresh local checksum).
  void adoptStored(BlockId id, BufferView stored);

  /// Reads and verifies the replica in its resident form — compressed when
  /// the replica was stored with a codec. No payload copy. This is what
  /// replication ships. Throws NotFoundError / ChecksumError.
  virtual StoredReplica readStored(BlockId id) const = 0;

  /// Reads, checksum-verifies, and (when encoded) decodes the whole
  /// replica. Raw replicas are served as a view of the resident buffer —
  /// no payload copy; encoded replicas decode into a fresh buffer.
  /// Throws NotFoundError / ChecksumError, and IoError when the replica's
  /// codec disagrees with the configured one (an encoded replica must not
  /// be served as raw garbage).
  BufferView readBlock(BlockId id) const;

  /// Reads [offset, offset+len) after verifying the replica. For an
  /// encoded replica only the frames covering the range are decoded. len
  /// clamps to the block end; an offset past the end throws
  /// InvalidArgumentError.
  BufferView readBlockRange(BlockId id, uint64_t offset, uint64_t len) const;

  virtual bool hasBlock(BlockId id) const = 0;
  virtual void deleteBlock(BlockId id) = 0;

  /// RAW (logical) replica size in bytes — what the namespace accounts;
  /// throws NotFoundError.
  virtual uint64_t blockSize(BlockId id) const = 0;

  /// Resident (stored, possibly compressed) size in bytes; throws
  /// NotFoundError.
  virtual uint64_t storedSize(BlockId id) const = 0;

  /// All stored block ids (sorted), as sent in block reports.
  virtual std::vector<BlockId> listBlocks() const = 0;

  /// Sum of replica payload bytes currently resident in the store — the
  /// STORED form, so compressed replicas count their compressed size.
  /// Each replica is charged its own size once — outstanding read views
  /// never inflate this, and a buffer shared with another store's replica
  /// is charged to each store (each models its own disk).
  virtual uint64_t usedBytes() const = 0;

  /// Verifies every replica's checksums; returns ids that fail. This is the
  /// periodic DataNode block scanner and the post-restart integrity check
  /// the paper reports taking 15 minutes on the real cluster.
  virtual std::vector<BlockId> scanAll() const = 0;

  /// Test/failure-injection hook: flips one byte of the stored payload
  /// without updating checksums. Throws NotFoundError. Copy-on-write:
  /// views handed out before the corruption keep seeing the clean bytes.
  virtual void corruptBlock(BlockId id, size_t byte_offset) = 0;

 protected:
  /// Stores already-encoded bytes with their logical size and codec.
  virtual void putStored(BlockId id, BufferView stored, uint64_t raw_size,
                         CodecKind codec) = 0;

  /// Enforces the configured-vs-replica codec policy; raw replicas are
  /// always acceptable (blocks written before compression was enabled).
  void checkReplicaCodec(BlockId id, CodecKind replica_codec) const;

  CodecKind codec_ = CodecKind::kNone;
  MetricsRegistry* codec_metrics_ = nullptr;
  TraceCollector* codec_trace_ = nullptr;
  std::string codec_component_ = "blockstore";
};

/// Replicas held in memory.
class MemBlockStore final : public BlockStore {
 public:
  StoredReplica readStored(BlockId id) const override;
  bool hasBlock(BlockId id) const override;
  void deleteBlock(BlockId id) override;
  uint64_t blockSize(BlockId id) const override;
  uint64_t storedSize(BlockId id) const override;
  std::vector<BlockId> listBlocks() const override;
  uint64_t usedBytes() const override;
  std::vector<BlockId> scanAll() const override;
  void corruptBlock(BlockId id, size_t byte_offset) override;

 protected:
  void putStored(BlockId id, BufferView stored, uint64_t raw_size,
                 CodecKind codec) override;

 private:
  struct Replica {
    /// Stored form (encoded when codec != kNone). Usually a slice of the
    /// writeBlock request buffer, shared with the block's other replicas.
    BufferView data;
    std::vector<uint32_t> crcs;
    uint64_t raw_size = 0;
    CodecKind codec = CodecKind::kNone;
    /// Set after the first successful read verification; later reads of the
    /// same resident buffer skip re-hashing. Any buffer swap (overwrite,
    /// corruption) resets it, so detection is never lost — and scanAll()
    /// (the block scanner) always verifies regardless.
    bool verified = false;
  };

  mutable std::mutex mutex_;
  /// mutable: const reads cache their verification verdict in the slot.
  mutable std::map<BlockId, Replica> replicas_;
  /// Running total of stored replica bytes (O(1) usedBytes; gauge reads
  /// never walk the map while the data path contends for the mutex).
  uint64_t used_bytes_ = 0;
};

/// Replicas as blk_<id> / blk_<id>.meta files under `root`.
class FileBlockStore final : public BlockStore {
 public:
  /// Creates `root` if needed; existing blk_* files are adopted (restart).
  explicit FileBlockStore(std::filesystem::path root);

  StoredReplica readStored(BlockId id) const override;
  bool hasBlock(BlockId id) const override;
  void deleteBlock(BlockId id) override;
  uint64_t blockSize(BlockId id) const override;
  uint64_t storedSize(BlockId id) const override;
  std::vector<BlockId> listBlocks() const override;
  uint64_t usedBytes() const override;
  std::vector<BlockId> scanAll() const override;
  void corruptBlock(BlockId id, size_t byte_offset) override;

  const std::filesystem::path& root() const { return root_; }

 protected:
  void putStored(BlockId id, BufferView stored, uint64_t raw_size,
                 CodecKind codec) override;

 private:
  /// Meta sidecar: varint CRC count + u32 CRCs (v1), optionally followed by
  /// u8 codec id + varint raw size (v2). V1 metas — written before
  /// compression existed — imply a raw replica whose logical size is the
  /// data file's size.
  struct Meta {
    std::vector<uint32_t> crcs;
    CodecKind codec = CodecKind::kNone;
    uint64_t raw_size = 0;
    bool has_raw_size = false;
  };

  std::filesystem::path dataPath(BlockId id) const;
  std::filesystem::path metaPath(BlockId id) const;
  Meta readMeta(BlockId id) const;

  std::filesystem::path root_;
  mutable std::mutex mutex_;
};

}  // namespace mh::hdfs

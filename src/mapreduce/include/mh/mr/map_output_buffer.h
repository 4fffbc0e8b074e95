#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mh/common/codec.h"
#include "mh/common/trace.h"
#include "mh/mr/job.h"

/// \file map_output_buffer.h
/// The map side's collect/sort/spill core — this library's MapOutputBuffer.
///
/// Map emissions append raw key and value bytes into one contiguous arena;
/// a parallel index of fixed-width `{key prefix, partition, offset,
/// key_len, val_len}` entries describes the records. Nothing is
/// heap-allocated per record, and the record bytes never move.
///
/// There is one sort path. Each record becomes a 128-bit packed key,
/// `(8-byte big-endian key prefix, min(key_len, 9), insertion rank)`,
/// bucketed by partition in rank order. Each bucket is sorted by a stable
/// LSD radix over the length and prefix bytes, skipping bytes every key in
/// the bucket shares (std::sort on the packed keys for tiny buckets). For
/// keys of up to 8 bytes the packed key IS the sort key: byte-lexicographic
/// order, then insertion order, so the sort is stable. Keys longer than 8
/// bytes all carry length 9, so keys sharing their first 8 bytes form runs
/// of equal (prefix, 9). Each such run is fixed up in place by a
/// comparator sort on the key bytes past the first 8, with rank as the
/// final tie-break. The batch is read back through the packed order.
///
/// The buffer has a hard budget. When the working set (arena bytes + index
/// bytes) crosses `io.sort.mb * io.sort.spill.percent`, the buffer sorts,
/// runs the combiner (per spill, as real Hadoop does), encodes one
/// kv_stream run per partition — a *spill* — and resets the arena. A map
/// task's collect working set is therefore bounded regardless of input
/// size. `finish()` spills the remainder and, when a task spilled more than
/// once, merges the per-partition spill runs through the loser-tree
/// `KvRunMerger` with a final combine pass.
///
/// The arena, index, packed sort keys, radix scratch, and retained spill
/// runs are charged against the TaskTracker heap budget through the task's
/// HeapFn (capacity-accurate, released when the buffer dies), so a map's
/// memory discipline is visible on the same gauge as the reduce side's
/// shuffle working set.
///
/// Config keys (defaults):
///   io.sort.mb             32    collect budget, MiB (clamped to [1, 2047])
///   io.sort.spill.percent  0.80  fill fraction that triggers a spill
///
/// Counter semantics (Hadoop-faithful):
///   MAP_SPILLS       — number of sort/spill passes this task ran
///   SPILLED_RECORDS  — records written to spill runs, plus records written
///                      again by the final multi-spill merge; equals map
///                      output records for a single-spill, combiner-less
///                      task and exceeds it once a task spills twice
///   COMBINE_INPUT/OUTPUT_RECORDS — grow with every spill *and* with the
///                      final merge's combine pass (added once per pass)

namespace mh::mr {

class MapOutputBuffer {
 public:
  /// `spec` supplies conf (budget keys, the map-output codec) and the
  /// optional combiner factory; `counters` receives the spill/combine
  /// counters; `heap` (optional) is the TaskTracker budget callback;
  /// `fs`/`trace`/`trace_component` (optional) plumb side-data access for
  /// combiners and SORT_SPILL spans; `metrics` (optional) hosts the
  /// per-codec encode/decode histograms.
  MapOutputBuffer(const JobSpec& spec, Counters& counters,
                  TaskContext::HeapFn heap, FileSystemView* fs,
                  TraceCollector* trace, std::string_view trace_component,
                  MetricsRegistry* metrics = nullptr);
  ~MapOutputBuffer();
  MapOutputBuffer(const MapOutputBuffer&) = delete;
  MapOutputBuffer& operator=(const MapOutputBuffer&) = delete;

  /// Appends one record. May trigger a synchronous sort+spill when the
  /// working set crosses the spill threshold. A single record larger than
  /// the whole threshold is admitted and spilled solo (the arena briefly
  /// overshoots by that one record).
  void collect(std::string_view key, std::string_view value,
               uint32_t partition);

  /// Spills whatever is still buffered, then merges all spill runs into
  /// the task's final sorted run per partition (loser-tree merge + final
  /// combine when spills > 1). Call exactly once, after the mapper's
  /// cleanup().
  std::vector<Bytes> finish();

  /// Sort/spill passes so far (the MAP_SPILLS counter).
  int64_t spillCount() const { return spill_count_; }

  /// Cumulative wall time inside index sorts, for the tracker's
  /// `map.sort.micros` histogram.
  int64_t sortMicros() const { return sort_micros_; }

  /// Current charged working set, bytes (test/diagnostic hook).
  int64_t chargedBytes() const { return charged_; }

 private:
  /// 24 bytes per record; offsets address the arena, so the budget is
  /// clamped below 2^32 bytes. `prefix` caches the key's first 8 bytes
  /// big-endian (zero-padded): the high half of the packed sort key.
  struct IndexEntry {
    uint64_t prefix;
    uint32_t partition;
    uint32_t offset;  ///< key bytes start; value bytes follow the key
    uint32_t key_len;
    uint32_t val_len;
  };

  std::string_view keyAt(const IndexEntry& e) const {
    return {arena_.data() + e.offset, e.key_len};
  }
  std::string_view valueAt(const IndexEntry& e) const {
    return {arena_.data() + e.offset + e.key_len, e.val_len};
  }

  /// The entry at sorted position `rank` (valid after sortIndex).
  const IndexEntry& entryAt(size_t rank) const {
    return index_[static_cast<uint32_t>(packed_[rank])];
  }

  size_t workingSet() const {
    return arena_.size() + index_.size() * sizeof(IndexEntry);
  }

  void sortIndex();
  /// Puts one radix-sorted partition's runs of equal (prefix, 9) — keys
  /// longer than 8 bytes that share their first 8 — into (key, rank) order.
  void fixLongKeyRuns(unsigned __int128* keys, size_t n) const;
  void spill();
  /// Encodes one finished run in place when the map-output codec is on,
  /// bumping the SPILL_RAW/COMPRESSED_BYTES counters. No-op otherwise.
  void maybeEncodeRun(Bytes& run);
  /// Runs the combiner over the key-grouped records described by
  /// `entries[begin, end)` (one partition), appending re-sorted framed
  /// output to `out`. Returns records written.
  int64_t combineIndexRange(size_t begin, size_t end, Bytes& out);
  /// Re-syncs the heap charge to the current capacities; may throw
  /// OutOfMemoryError from the HeapFn (the charge is recorded first, so
  /// the destructor releases exactly what was added).
  void syncCharge();

  const JobSpec& spec_;
  Counters& counters_;
  TaskContext::HeapFn heap_;
  FileSystemView* fs_;
  TraceCollector* trace_;
  std::string trace_component_;
  MetricsRegistry* metrics_;

  uint32_t partitions_;
  size_t spill_threshold_;
  /// `mapred.map.output.compression.codec`: spill runs are encoded at
  /// spill time, so the retained runs — and their heap charge — are the
  /// compressed bytes.
  CodecKind codec_ = CodecKind::kNone;

  Bytes arena_;
  std::vector<IndexEntry> index_;
  /// Packed (prefix | min(key_len, 9) | insertion rank) sort keys, in
  /// sorted order after sortIndex; `scratch_` is the radix's second buffer,
  /// as long as the largest partition of the largest batch so far.
  std::vector<unsigned __int128> packed_;
  std::vector<unsigned __int128> scratch_;
  /// Encoded spill runs: spills_[s][p] is spill s's run for partition p.
  std::vector<std::vector<Bytes>> spills_;
  size_t spill_bytes_ = 0;  ///< total bytes across retained spill runs

  int64_t charged_ = 0;
  int64_t spill_count_ = 0;
  int64_t sort_micros_ = 0;
  bool finished_ = false;
};

}  // namespace mh::mr

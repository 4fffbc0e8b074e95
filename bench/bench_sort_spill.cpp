// Tentpole benchmark — map-side collect+sort. Replays the seed engine's
// per-partition vector<KeyValue> collect (one Bytes pair allocated per
// record, stable_sort over 64-byte elements, encodeKvRun) against the
// arena-backed MapOutputBuffer (contiguous arena, packed 16-byte sort keys,
// spill runs) on 1M records, with and without a combiner, for three key
// sets: short WordCount-like keys, 10-byte TeraGen-like random keys, and
// 12-byte keys that all share one 8-byte prefix (the buffer's long-key
// run fix-up). All paths must produce byte-identical runs; on the short
// keys the arena path must be faster. Writes a machine-readable summary to
// BENCH_sort_spill.json (or argv[1]).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mh/common/rng.h"
#include "mh/common/stopwatch.h"
#include "mh/mr/job.h"
#include "mh/mr/kv_stream.h"
#include "mh/mr/map_output_buffer.h"

namespace {

using namespace mh;
using namespace mh::mr;

constexpr size_t kRecords = 1'000'000;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kVocabulary = 65536;
constexpr int kReps = 3;

/// Sums varint-encoded counts — the WordCount combiner shape.
class SumVarintCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    int64_t sum = 0;
    while (const auto v = values.next()) {
      ByteReader reader(*v);
      sum += reader.readVarI64();
    }
    Bytes value;
    ByteWriter(value).writeVarI64(sum);
    ctx.emit(Bytes(key), std::move(value));
  }
};

JobSpec makeSpec(bool with_combiner, int sort_mb) {
  JobSpec spec;
  spec.num_reducers = kPartitions;
  spec.partitioner = [] { return std::make_unique<HashPartitioner>(); };
  if (with_combiner) {
    spec.combiner = [] { return std::make_unique<SumVarintCombiner>(); };
  }
  spec.conf.setInt("io.sort.mb", sort_mb);
  return spec;
}

/// The key sets: `short` keys fit the 8-byte packed prefix; `teragen10`
/// keys are Sort's 10 random alphanumerics; `prefix12` keys share their
/// first 8 bytes, so every key's order is decided past the prefix.
constexpr const char* kKeySets[] = {"short", "teragen10", "prefix12"};

std::vector<KeyValue> makeRecords(std::string_view key_set) {
  static const char kAlnum[] =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
  Rng rng(20260807);
  std::vector<KeyValue> records;
  records.reserve(kRecords);
  Bytes one;
  ByteWriter(one).writeVarI64(1);
  for (size_t i = 0; i < kRecords; ++i) {
    Bytes key;
    if (key_set == "short") {
      key = "w" + std::to_string(rng.uniform(kVocabulary));
    } else if (key_set == "teragen10") {
      for (int c = 0; c < 10; ++c) key.push_back(kAlnum[rng.uniform(62)]);
    } else {
      char suffix[8];
      std::snprintf(suffix, sizeof(suffix), "%04llu",
                    static_cast<unsigned long long>(rng.uniform(10'000)));
      key = std::string("prefix00") + suffix;
    }
    records.push_back({std::move(key), one});
  }
  return records;
}

/// The seed engine's map-side tail, verbatim in shape: per-partition
/// KeyValue vectors (a Bytes pair per record), stable_sort by key,
/// whole-partition combine, encodeKvRun.
std::vector<Bytes> seedCollect(const std::vector<KeyValue>& input,
                               const JobSpec& spec) {
  const auto partitioner = spec.partitioner();
  std::vector<std::vector<KeyValue>> buffers(kPartitions);
  for (const KeyValue& kv : input) {
    const uint32_t p = partitioner->partition(kv.key, kPartitions);
    buffers[p].push_back({Bytes(kv.key), Bytes(kv.value)});
  }

  const auto sort_by_key = [](std::vector<KeyValue>& records) {
    std::stable_sort(records.begin(), records.end(),
                     [](const KeyValue& a, const KeyValue& b) {
                       return a.key < b.key;
                     });
  };

  std::vector<Bytes> runs(kPartitions);
  for (uint32_t p = 0; p < kPartitions; ++p) {
    auto& records = buffers[p];
    sort_by_key(records);
    if (spec.combiner && !records.empty()) {
      std::vector<KeyValue> combined;
      Counters scratch;
      TaskContext ctx(
          spec.conf, scratch,
          [&](Bytes key, Bytes value) {
            combined.push_back({std::move(key), std::move(value)});
          });
      class SliceValues final : public ValuesIterator {
       public:
        SliceValues(const std::vector<KeyValue>& records, size_t begin,
                    size_t end)
            : records_(records), pos_(begin), end_(end) {}
        std::optional<std::string_view> next() override {
          if (pos_ >= end_) return std::nullopt;
          return std::string_view(records_[pos_++].value);
        }

       private:
        const std::vector<KeyValue>& records_;
        size_t pos_;
        size_t end_;
      };
      const auto combiner = spec.combiner();
      combiner->setup(ctx);
      size_t i = 0;
      while (i < records.size()) {
        size_t j = i + 1;
        while (j < records.size() && records[j].key == records[i].key) ++j;
        SliceValues values(records, i, j);
        combiner->reduce(records[i].key, values, ctx);
        i = j;
      }
      combiner->cleanup(ctx);
      sort_by_key(combined);
      records = std::move(combined);
    }
    runs[p] = encodeKvRun(records);
  }
  return runs;
}

std::vector<Bytes> arenaCollect(const std::vector<KeyValue>& input,
                                const JobSpec& spec, int64_t& spills,
                                int64_t& sort_us) {
  const auto partitioner = spec.partitioner();
  Counters scratch;
  MapOutputBuffer buffer(spec, scratch, {}, nullptr, nullptr, {});
  for (const KeyValue& kv : input) {
    buffer.collect(kv.key, kv.value,
                   partitioner->partition(kv.key, kPartitions));
  }
  auto runs = buffer.finish();
  spills = buffer.spillCount();
  sort_us = buffer.sortMicros();
  return runs;
}

struct Row {
  std::string keys;
  std::string path;
  bool combiner;
  int64_t micros;
  int64_t spills;
  int64_t sort_micros;  ///< inside the buffer's sorts (0 for seed_vector)
};

template <typename Fn>
int64_t bestOfReps(Fn&& run) {
  int64_t best = INT64_MAX;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    run();
    best = std::min(best, watch.elapsedMicros());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sort_spill.json";

  std::printf("=== map-side collect+sort: seed vector path vs arena "
              "MapOutputBuffer (%zu records, %d partitions) ===\n\n",
              kRecords, kPartitions);
  std::printf("%-10s %-14s %-9s %12s %8s %12s\n", "keys", "path",
              "combiner", "micros", "spills", "sort_micros");

  std::vector<Row> rows;
  bool identical = true;
  double speedups[2] = {0, 0};
  const auto add_row = [&](Row row) {
    std::printf("%-10s %-14s %-9s %12lld %8lld %12lld\n", row.keys.c_str(),
                row.path.c_str(), row.combiner ? "yes" : "no",
                static_cast<long long>(row.micros),
                static_cast<long long>(row.spills),
                static_cast<long long>(row.sort_micros));
    rows.push_back(std::move(row));
  };
  // Runs the arena path kReps times; the row keeps the fastest run and,
  // separately, the fastest sort time.
  const auto arena_row = [&](const std::vector<KeyValue>& input,
                             const JobSpec& spec, const std::string& key_set,
                             const char* path, std::vector<Bytes>& runs) {
    Row row{key_set, path, spec.combiner != nullptr, 0, 0, INT64_MAX};
    row.micros = bestOfReps([&] {
      int64_t sort_us = 0;
      runs = arenaCollect(input, spec, row.spills, sort_us);
      row.sort_micros = std::min(row.sort_micros, sort_us);
    });
    add_row(row);
    return row.micros;
  };
  for (const std::string key_set : kKeySets) {
    const std::vector<KeyValue> input = makeRecords(key_set);
    for (const bool with_combiner : {false, true}) {
      // io.sort.mb=64 holds the full working set: one spill, so both paths
      // sort exactly once and the comparison isolates collect+sort cost.
      const JobSpec seed_spec = makeSpec(with_combiner, 64);
      std::vector<Bytes> seed_runs;
      const int64_t seed_us =
          bestOfReps([&] { seed_runs = seedCollect(input, seed_spec); });
      add_row({key_set, "seed_vector", with_combiner, seed_us, 1, 0});

      std::vector<Bytes> arena_runs;
      const int64_t arena_us =
          arena_row(input, seed_spec, key_set, "arena_buffer", arena_runs);

      identical = identical && seed_runs == arena_runs;
      if (key_set == "short") {
        speedups[with_combiner ? 1 : 0] =
            static_cast<double>(seed_us) / static_cast<double>(arena_us);
      }

      // Informational: the same input under an 8 MiB budget — multiple
      // spills plus the loser-tree merge, still byte-identical output.
      const JobSpec tight_spec = makeSpec(with_combiner, 8);
      std::vector<Bytes> tight_runs;
      arena_row(input, tight_spec, key_set, "arena_spill8mb", tight_runs);
      identical = identical && seed_runs == tight_runs;
    }
  }

  std::printf("\nspeedup on short keys (single spill): %.2fx plain, %.2fx "
              "with combiner; outputs byte-identical: %s\n",
              speedups[0], speedups[1], identical ? "yes" : "NO");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sort_spill\",\n"
       << "  \"records\": " << kRecords << ",\n"
       << "  \"partitions\": " << kPartitions << ",\n"
       << "  \"reps\": " << kReps << ",\n"
       << "  \"outputs_byte_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"speedup_plain\": " << speedups[0] << ",\n"
       << "  \"speedup_combiner\": " << speedups[1] << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"keys\": \"" << rows[i].keys << "\", \"path\": \""
         << rows[i].path << "\", \"combiner\": "
         << (rows[i].combiner ? "true" : "false")
         << ", \"micros\": " << rows[i].micros
         << ", \"spills\": " << rows[i].spills
         << ", \"sort_micros\": " << rows[i].sort_micros << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote %s\n", out_path.c_str());

  // Shape gate: identical bytes always; the arena path must beat the seed
  // path clearly even on noisy CI machines (locally it should be >= 2x).
  if (!identical) return 1;
  if (speedups[0] < 1.2) return 1;
  return 0;
}

#include "mh/mr/map_output_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mh/common/codec.h"
#include "mh/common/rng.h"
#include "mh/mr/kv_stream.h"

/// Ordering property of the map-side collect/sort/spill buffer, checked
/// directly rather than through whole jobs: seeded random records go in,
/// and every partition's final run must equal a reference stable sort by
/// (partition, key). Values carry the insertion index, so equal keys must
/// come out in insertion order. Covered: key lengths 0-24 (8 and 9 often),
/// keys sharing an 8-byte prefix, keys sharing 60-72 bytes, embedded NULs
/// and bytes >= 0x80, heavy duplicates, 1/3/7 partitions, one spill and
/// many, combiner off and on, codec none and mh-lz, and a combiner whose
/// output needs re-sorting.

namespace mh::mr {
namespace {

enum class KeyShape {
  kRandomBytes,
  kSharedPrefix,
  kHeavyDuplicates,
  kLongSharedPrefix,
  kMixed
};

struct Record {
  uint32_t partition;
  Bytes key;
  Bytes value;
};

/// Bytes chosen to collide often and to sit on both sides of 0x80.
constexpr char kSmallAlphabet[] = {'\0', '\x01', 'a', 'b', '\x7f',
                                   '\x80', '\xfe', '\xff'};

Bytes smallAlphabetBytes(Rng& rng, size_t len) {
  Bytes out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kSmallAlphabet[rng.uniform(sizeof(kSmallAlphabet))]);
  }
  return out;
}

/// Lengths 0-24, with extra weight on the 7/8/9-byte boundary of the
/// packed prefix.
size_t keyLength(Rng& rng) {
  if (rng.uniform(3) == 0) return 7 + rng.uniform(3);
  return rng.uniform(25);
}

Bytes makeKey(KeyShape shape, Rng& rng) {
  switch (shape) {
    case KeyShape::kRandomBytes: {
      Bytes key;
      const size_t len = keyLength(rng);
      for (size_t i = 0; i < len; ++i) {
        key.push_back(static_cast<char>(rng.uniform(256)));
      }
      return key;
    }
    case KeyShape::kSharedPrefix: {
      static const std::string kPrefixes[] = {
          std::string("prefix00", 8), std::string("\0\0\0\0\0\0\0\0", 8),
          std::string("\xff\x80zz\xff\x80zz", 8)};
      const Bytes& prefix = kPrefixes[rng.uniform(3)];
      // Mostly longer than the prefix; sometimes a truncation of it, which
      // must sort before every longer key that shares it.
      if (rng.uniform(5) == 0) return prefix.substr(0, rng.uniform(9));
      return prefix + smallAlphabetBytes(rng, 1 + rng.uniform(16));
    }
    case KeyShape::kHeavyDuplicates: {
      static const std::string kVocabulary[] = {
          "", std::string("\0", 1), "eightchr", "ninechars", "a",
          std::string("eightchr\0", 9), "\xff"};
      return kVocabulary[rng.uniform(7)];
    }
    case KeyShape::kLongSharedPrefix: {
      // 72 shared bytes with NULs and high bytes, then a short tail from a
      // tiny alphabet: ties run far past the packed 8 bytes, and equal
      // keys repeat often.
      static const Bytes kLongPrefix = [] {
        Bytes prefix;
        for (int i = 0; i < 72; ++i) {
          prefix.push_back(kSmallAlphabet[(i * 5) % sizeof(kSmallAlphabet)]);
        }
        return prefix;
      }();
      if (rng.uniform(6) == 0) {
        return kLongPrefix.substr(0, 60 + rng.uniform(13));
      }
      return kLongPrefix + smallAlphabetBytes(rng, rng.uniform(4));
    }
    case KeyShape::kMixed:
      break;
  }
  const auto pick = static_cast<KeyShape>(rng.uniform(3));
  return pick == KeyShape::kRandomBytes ? smallAlphabetBytes(rng, keyLength(rng))
                                        : makeKey(pick, rng);
}

uint32_t partitionOf(std::string_view key, uint32_t parts) {
  uint32_t h = 2166136261u;
  for (const char c : key) h = (h ^ static_cast<uint8_t>(c)) * 16777619u;
  return h % parts;
}

std::vector<Record> makeRecords(KeyShape shape, uint64_t seed, size_t n,
                                uint32_t parts) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Bytes key = makeKey(shape, rng);
    const uint32_t p = partitionOf(key, parts);
    records.push_back({p, std::move(key), std::to_string(i)});
  }
  return records;
}

/// Joins every value of a key group with ','. Applied again to its own
/// output (the multi-spill final merge), it yields the same string, so the
/// combined value spells out the order the buffer delivered the values in.
class ConcatCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    Bytes joined;
    while (const auto v = values.next()) {
      if (!joined.empty()) joined.push_back(',');
      joined.append(*v);
    }
    ctx.emit(Bytes(key), std::move(joined));
  }
};

/// Rewrites each group's key to its first byte inverted, so emissions come
/// out in descending order and several groups share one output key, and
/// emits the group's values joined. The buffer must re-sort such output,
/// stably, before framing it.
class InvertFirstByteCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValuesIterator& values,
              TaskContext& ctx) override {
    Bytes joined;
    while (const auto v = values.next()) {
      if (!joined.empty()) joined.push_back(',');
      joined.append(*v);
    }
    ctx.emit(invertFirstByte(key), std::move(joined));
  }

  static Bytes invertFirstByte(std::string_view key) {
    return key.empty() ? Bytes() : Bytes(1, static_cast<char>(~key[0]));
  }
};

/// The reference: a stable sort by (partition, key), then per-key joins
/// when a combiner runs.
std::vector<std::vector<KeyValue>> referenceRuns(std::vector<Record> records,
                                                 uint32_t parts,
                                                 bool combine) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     if (a.partition != b.partition) {
                       return a.partition < b.partition;
                     }
                     return a.key < b.key;
                   });
  std::vector<std::vector<KeyValue>> runs(parts);
  for (const Record& r : records) {
    auto& run = runs[r.partition];
    if (combine && !run.empty() && run.back().key == r.key) {
      run.back().value += "," + r.value;
    } else {
      run.push_back({r.key, r.value});
    }
  }
  return runs;
}

struct BufferCase {
  uint32_t parts;
  bool many_spills;
  bool combine;
  const char* codec;
};

std::string describe(const BufferCase& c) {
  return "parts=" + std::to_string(c.parts) +
         " many_spills=" + std::to_string(c.many_spills) +
         " combine=" + std::to_string(c.combine) + " codec=" + c.codec;
}

void checkOrdering(KeyShape shape, uint64_t seed) {
  constexpr size_t kRecords = 6000;
  for (const uint32_t parts : {1u, 3u, 7u}) {
    for (const bool many_spills : {false, true}) {
      for (const bool combine : {false, true}) {
        for (const char* codec : {"none", "mh-lz"}) {
          const BufferCase c{parts, many_spills, combine, codec};
          SCOPED_TRACE(describe(c));
          const auto records = makeRecords(shape, seed + parts, kRecords,
                                           parts);

          JobSpec spec;
          spec.num_reducers = parts;
          if (combine) {
            spec.combiner = [] { return std::make_unique<ConcatCombiner>(); };
          }
          if (many_spills) {
            // ~52 KiB spill threshold: a spill every ~1300 records.
            spec.conf.setInt("io.sort.mb", 1);
            spec.conf.setDouble("io.sort.spill.percent", 0.05);
          }
          spec.conf.set("mapred.map.output.compression.codec", codec);

          Counters counters;
          MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
          for (const Record& r : records) {
            buffer.collect(r.key, r.value, r.partition);
          }
          const std::vector<Bytes> runs = buffer.finish();
          if (many_spills) {
            EXPECT_GE(buffer.spillCount(), 3);
          } else {
            EXPECT_EQ(buffer.spillCount(), 1);
          }

          const auto expected = referenceRuns(records, parts, combine);
          ASSERT_EQ(runs.size(), parts);
          for (uint32_t p = 0; p < parts; ++p) {
            SCOPED_TRACE("partition " + std::to_string(p));
            const bool encoded = isEncodedStream(runs[p]);
            EXPECT_EQ(encoded, std::string(codec) != "none" &&
                                   !runs[p].empty());
            Bytes raw = runs[p];
            if (encoded) raw = Bytes(codecDecode(runs[p]).view());
            const auto got = decodeKvRun(raw);
            ASSERT_EQ(got.size(), expected[p].size());
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(got[i].key, expected[p][i].key) << "record " << i;
              ASSERT_EQ(got[i].value, expected[p][i].value) << "record " << i;
            }
          }
        }
      }
    }
  }
}

TEST(MapOutputBufferTest, KeyRewritingCombinerOutputIsResortedStably) {
  for (const uint32_t parts : {1u, 3u}) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    const auto records = makeRecords(KeyShape::kMixed, 505, 3000, parts);
    JobSpec spec;
    spec.num_reducers = parts;
    spec.combiner = [] { return std::make_unique<InvertFirstByteCombiner>(); };
    Counters counters;
    MapOutputBuffer buffer(spec, counters, {}, nullptr, nullptr, {});
    for (const Record& r : records) buffer.collect(r.key, r.value, r.partition);
    const std::vector<Bytes> runs = buffer.finish();
    ASSERT_EQ(buffer.spillCount(), 1);

    // Groups are combined in key order; their rewritten keys then sort
    // stably, so groups sharing a first byte keep ascending key order.
    auto expected = referenceRuns(records, parts, /*combine=*/true);
    for (auto& run : expected) {
      for (KeyValue& kv : run) {
        kv.key = InvertFirstByteCombiner::invertFirstByte(kv.key);
      }
      std::stable_sort(run.begin(), run.end(),
                       [](const KeyValue& a, const KeyValue& b) {
                         return a.key < b.key;
                       });
    }
    ASSERT_EQ(runs.size(), parts);
    for (uint32_t p = 0; p < parts; ++p) {
      const auto got = decodeKvRun(runs[p]);
      ASSERT_EQ(got.size(), expected[p].size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, expected[p][i].key) << "record " << i;
        ASSERT_EQ(got[i].value, expected[p][i].value) << "record " << i;
      }
    }
  }
}

TEST(MapOutputBufferTest, RandomByteKeysSortLikeStableReference) {
  checkOrdering(KeyShape::kRandomBytes, 101);
}

TEST(MapOutputBufferTest, KeysSharingEightBytePrefixSortByFullKey) {
  checkOrdering(KeyShape::kSharedPrefix, 202);
}

TEST(MapOutputBufferTest, KeysSharingLongPrefixSortByFullKeyThenRank) {
  checkOrdering(KeyShape::kLongSharedPrefix, 606);
}

TEST(MapOutputBufferTest, HeavyDuplicatesKeepInsertionOrder) {
  checkOrdering(KeyShape::kHeavyDuplicates, 303);
}

TEST(MapOutputBufferTest, MixedKeyShapesSortLikeStableReference) {
  checkOrdering(KeyShape::kMixed, 404);
}

}  // namespace
}  // namespace mh::mr

#include "mh/common/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mh/common/bytes.h"
#include "mh/common/error.h"
#include "mh/common/rng.h"

namespace mh {
namespace {

std::string incompressibleBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next() & 0xff);
  return out;
}

std::string repetitiveText(size_t approx) {
  std::string out;
  while (out.size() < approx) {
    out += "the quick brown fox jumps over the lazy dog -- ";
    out += "hadoop hadoop hadoop mapreduce mapreduce shuffle ";
  }
  out.resize(approx);
  return out;
}

const CodecKind kCodecs[] = {CodecKind::kMhLz, CodecKind::kVarRle};

/// One mh-lz unit as the encoder wrote it; the final unit of a frame has no
/// match (match_len 0).
struct LzUnit {
  size_t lit_len = 0;
  size_t match_len = 0;
  size_t offset = 0;
};

/// What an mh-lz stream holds, frame by frame: how many frames were stored
/// raw, and the units of every compressed frame. Walks the token format
/// documented in codec.cpp; assumes a well-formed stream.
struct LzLayout {
  size_t stored_frames = 0;
  size_t compressed_frames = 0;
  std::vector<std::vector<LzUnit>> frames;  // compressed frames only
};

LzLayout lzLayout(std::string_view stream) {
  ByteReader r(stream);
  r.readRaw(kCodecHeaderBytes);
  LzLayout layout;
  while (!r.atEnd()) {
    r.readVarU64();  // raw_len
    const uint8_t method = r.readU8();
    const size_t payload_len = static_cast<size_t>(r.readVarU64());
    r.readU32();  // crc
    ByteReader p(r.readRaw(payload_len));
    if (method == 0) {
      ++layout.stored_frames;
      continue;
    }
    ++layout.compressed_frames;
    std::vector<LzUnit>& units = layout.frames.emplace_back();
    const auto readExt = [&p](size_t len) {
      uint8_t b;
      do {
        b = p.readU8();
        len += b;
      } while (b == 0xFF);
      return len;
    };
    while (true) {
      const uint8_t token = p.readU8();
      LzUnit unit;
      unit.lit_len = token >> 4;
      if (unit.lit_len == 15) unit.lit_len = readExt(15);
      p.readRaw(unit.lit_len);
      if (p.atEnd()) {
        units.push_back(unit);
        break;
      }
      unit.offset = p.readU8();
      unit.offset |= static_cast<size_t>(p.readU8()) << 8;
      unit.match_len = (token & 0x0F) + 4;
      if ((token & 0x0F) == 15) unit.match_len = readExt(15) + 4;
      units.push_back(unit);
    }
  }
  return layout;
}

bool anyUnit(const LzLayout& layout, bool (*pred)(const LzUnit&)) {
  for (const auto& units : layout.frames) {
    if (std::any_of(units.begin(), units.end(), pred)) return true;
  }
  return false;
}

/// TeraGen-like rows of exactly 100 bytes, the Sort workload's input shape:
/// a 10-byte random key, a tab, a 10-digit row number, six 13-byte runs of
/// one random letter each, a newline.
std::string sortRows(size_t rows, uint64_t seed) {
  static const char kAlnum[] =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
  Rng rng(seed);
  std::string out;
  char row[100];
  for (size_t id = 0; id < rows; ++id) {
    for (int i = 0; i < 10; ++i) row[i] = kAlnum[rng.uniform(62)];
    row[10] = '\t';
    char digits[24];
    std::snprintf(digits, sizeof(digits), "%010zu", id);
    std::memcpy(row + 11, digits, 10);
    for (int g = 0; g < 6; ++g) {
      std::fill_n(row + 21 + g * 13, 13,
                  static_cast<char>('A' + rng.uniform(26)));
    }
    row[99] = '\n';
    out.append(row, sizeof(row));
  }
  return out;
}

TEST(CodecTest, NameAndIdRoundTrip) {
  EXPECT_EQ(codecFromName("none"), CodecKind::kNone);
  EXPECT_EQ(codecFromName("mh-lz"), CodecKind::kMhLz);
  EXPECT_EQ(codecFromName("var-rle"), CodecKind::kVarRle);
  EXPECT_EQ(codecName(CodecKind::kMhLz), "mh-lz");
  EXPECT_EQ(codecFromId(2), CodecKind::kVarRle);
  EXPECT_THROW(codecFromName("gzip"), InvalidArgumentError);
  EXPECT_THROW(codecFromId(7), InvalidArgumentError);
}

TEST(CodecTest, EncodeRejectsNone) {
  EXPECT_THROW(codecEncode(CodecKind::kNone, "abc"), InvalidArgumentError);
}

TEST(CodecTest, RoundTripEmptyAndTiny) {
  for (CodecKind kind : kCodecs) {
    for (std::string_view raw : {std::string_view(""), std::string_view("x"),
                                 std::string_view("ab"),
                                 std::string_view("\0\0\0\0", 4)}) {
      const Bytes stream = codecEncode(kind, raw);
      ASSERT_TRUE(isEncodedStream(stream));
      const Buffer back = codecDecode(stream);
      EXPECT_EQ(back.view(), raw) << codecName(kind);
    }
  }
}

TEST(CodecTest, RoundTripFrameBoundaries) {
  // One byte under, exactly at, and one byte over the 64 KiB frame size —
  // the over case must produce a second frame.
  for (CodecKind kind : kCodecs) {
    for (size_t n : {kCodecFrameRawBytes - 1, kCodecFrameRawBytes,
                     kCodecFrameRawBytes + 1, 3 * kCodecFrameRawBytes + 17}) {
      const std::string raw = repetitiveText(n);
      const Bytes stream = codecEncode(kind, raw);
      const EncodedStreamInfo info = encodedStreamInfo(stream);
      EXPECT_EQ(info.codec, kind);
      EXPECT_EQ(info.raw_size, n);
      EXPECT_EQ(info.frame_count,
                (n + kCodecFrameRawBytes - 1) / kCodecFrameRawBytes);
      EXPECT_EQ(codecDecode(stream).view(), raw) << codecName(kind);
    }
  }
}

TEST(CodecTest, RepetitiveInputShrinks) {
  const std::string raw = repetitiveText(256 * 1024);
  for (CodecKind kind : kCodecs) {
    const Bytes stream = codecEncode(kind, raw);
    if (kind == CodecKind::kMhLz) {
      EXPECT_LT(stream.size(), raw.size() / 2) << codecName(kind);
    }
    EXPECT_EQ(codecDecode(stream).view(), raw);
  }
  // A long single-byte run is VarRle's best case.
  const std::string run(100 * 1000, 'z');
  const Bytes rle = codecEncode(CodecKind::kVarRle, run);
  EXPECT_LT(rle.size(), run.size() / 100);
  EXPECT_EQ(codecDecode(rle).view(), run);
}

TEST(CodecTest, IncompressibleInputStoredWithBoundedExpansion) {
  const std::string raw = incompressibleBytes(200 * 1000, 99);
  for (CodecKind kind : kCodecs) {
    const Bytes stream = codecEncode(kind, raw);
    // Stored frames cost only the stream header plus per-frame headers.
    EXPECT_LT(stream.size(), raw.size() + 64) << codecName(kind);
    EXPECT_EQ(codecDecode(stream).view(), raw);
  }
}

TEST(CodecTest, DecodeRangeMatchesFullDecode) {
  const std::string raw = repetitiveText(5 * kCodecFrameRawBytes + 123);
  for (CodecKind kind : kCodecs) {
    const Bytes stream = codecEncode(kind, raw);
    const size_t offsets[] = {0, 1, kCodecFrameRawBytes - 1,
                              kCodecFrameRawBytes, 2 * kCodecFrameRawBytes + 7,
                              raw.size() - 1};
    for (size_t off : offsets) {
      for (size_t len : {size_t{1}, size_t{100}, kCodecFrameRawBytes + 5,
                         raw.size()}) {
        const BufferView got = codecDecodeRange(stream, off, len);
        const size_t want = std::min(len, raw.size() - off);
        ASSERT_EQ(got.size(), want) << codecName(kind) << " off=" << off;
        EXPECT_EQ(got.str(), raw.substr(off, want));
      }
    }
    // Reading at exactly the end yields an empty view; past it throws.
    EXPECT_EQ(codecDecodeRange(stream, raw.size(), 10).size(), 0u);
    EXPECT_THROW(codecDecodeRange(stream, raw.size() + 1, 1),
                 InvalidArgumentError);
  }
}

TEST(CodecTest, TruncatedStreamRejectedNeverWrongBytes) {
  const std::string raw = repetitiveText(kCodecFrameRawBytes + 500);
  for (CodecKind kind : kCodecs) {
    const Bytes stream = codecEncode(kind, raw);
    // Cut at a spread of points: inside the header, inside a frame header,
    // mid-payload, and one byte short of complete.
    for (size_t keep : {size_t{0}, size_t{3}, kCodecHeaderBytes + 2,
                        stream.size() / 2, stream.size() - 1}) {
      const std::string cut = stream.substr(0, keep);
      EXPECT_THROW(codecDecode(cut), Error) << codecName(kind) << " keep="
                                            << keep;
    }
    // A cut at exactly the header boundary is indistinguishable from an
    // encoding of empty input (frames are self-describing; there is no
    // stream footer). It decodes to zero bytes — never to wrong bytes —
    // and the seams catch the shortfall against their out-of-band raw
    // size (block meta, run length).
    EXPECT_EQ(codecDecode(stream.substr(0, kCodecHeaderBytes)).view(), "");
  }
}

TEST(CodecTest, BitFlipsRejectedNeverWrongBytes) {
  const std::string raw = repetitiveText(2 * kCodecFrameRawBytes);
  for (CodecKind kind : kCodecs) {
    const Bytes stream = codecEncode(kind, raw);
    Rng rng(7);
    int checksum_errors = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::string bad = stream;
      const size_t pos = kCodecHeaderBytes +
                         rng.next() % (bad.size() - kCodecHeaderBytes);
      bad[pos] = static_cast<char>(bad[pos] ^ (1u << (trial % 8)));
      // Every corruption must surface as an error: structural damage as
      // InvalidArgumentError, wrong-but-decodable payloads as ChecksumError.
      // It must never silently return different bytes.
      try {
        const Buffer out = codecDecode(bad);
        EXPECT_EQ(out.view(), raw)
            << codecName(kind) << " silent corruption at " << pos;
      } catch (const ChecksumError&) {
        ++checksum_errors;
      } catch (const InvalidArgumentError&) {
      }
    }
    // The frame CRC (not just structural luck) must be doing real work.
    EXPECT_GT(checksum_errors, 0) << codecName(kind);
  }
}

TEST(CodecTest, FlippedPayloadByteIsChecksumError) {
  // Deterministic version of the property above: corrupt a known literal
  // byte deep inside the payload of a stored (incompressible) frame, where
  // decode always succeeds structurally and only the CRC can object.
  const std::string raw = incompressibleBytes(1000, 5);
  const Bytes stream = codecEncode(CodecKind::kMhLz, raw);
  std::string bad = stream;
  bad[bad.size() - 10] = static_cast<char>(bad[bad.size() - 10] ^ 0x40);
  EXPECT_THROW(codecDecode(bad), ChecksumError);
}

TEST(CodecTest, IsEncodedStreamGates) {
  EXPECT_FALSE(isEncodedStream(""));
  EXPECT_FALSE(isEncodedStream("plain text"));
  EXPECT_FALSE(isEncodedStream("MHC1"));  // magic but no codec id
  EXPECT_TRUE(isEncodedStream(codecEncode(CodecKind::kVarRle, "abc")));
  EXPECT_THROW(encodedStreamInfo("plain text"), InvalidArgumentError);
}

TEST(CodecTest, MetricsHistogramsRecord) {
  MetricsRegistry metrics;
  const std::string raw = repetitiveText(64 * 1024);
  const Bytes stream = codecEncode(CodecKind::kMhLz, raw, &metrics);
  codecDecode(stream, &metrics);
  MetricsRegistry& codec = metrics.child("codec.mh-lz");
  EXPECT_EQ(codec.histogram("encode.micros").count(), 1u);
  EXPECT_EQ(codec.histogram("decode.micros").count(), 1u);
}

TEST(CodecTest, OverlappingMatchesDecodeCorrectly) {
  // RLE-like input makes mh-lz emit offset-1 overlapping copies, the
  // classic LZ decoder edge case.
  std::string raw = "a";
  raw += std::string(70000, 'a');
  raw += "abababababababab";
  const Bytes stream = codecEncode(CodecKind::kMhLz, raw);
  EXPECT_LT(stream.size(), 2000u);
  EXPECT_EQ(codecDecode(stream).view(), raw);
}

TEST(CodecTest, MhLzRoundTripsEveryMatcherShape) {
  const auto roundTrip = [](const std::string& raw, const char* shape) {
    const Bytes stream = codecEncode(CodecKind::kMhLz, raw);
    EXPECT_EQ(codecDecode(stream).view(), raw) << shape;
    return lzLayout(stream);
  };

  // Empty and shorter than one 4-byte probe.
  for (size_t n = 0; n <= 5; ++n) roundTrip(std::string(n, 'q'), "tiny");
  roundTrip("abcab", "tiny distinct");

  // Exactly one frame, and one byte more (a 1-byte second frame).
  const std::string frame = repetitiveText(kCodecFrameRawBytes);
  EXPECT_EQ(roundTrip(frame, "one frame").compressed_frames, 1u);
  const LzLayout over = roundTrip(frame + "!", "one frame + 1");
  EXPECT_EQ(over.compressed_frames + over.stored_frames, 2u);

  // A match running to the frame's last byte leaves an empty final unit.
  std::string to_end;
  while (to_end.size() < 4000) to_end += "0123456789abcdef";
  const LzLayout end_layout = roundTrip(to_end, "match to last byte");
  ASSERT_EQ(end_layout.frames.size(), 1u);
  EXPECT_EQ(end_layout.frames[0].back().lit_len, 0u);
  EXPECT_GT(end_layout.frames[0][end_layout.frames[0].size() - 2].match_len,
            0u);

  // The farthest match a frame can hold. Offsets are 16-bit (65535 is
  // encodable), but a 4-byte match must start at or before byte 65532 of
  // a 64 KiB frame, so 65532 is the largest offset reachable: a 4-byte tag
  // at the start, zeros, the same tag as the frame's last 4 bytes.
  std::string far(kCodecFrameRawBytes, '\0');
  far.replace(0, 4, "WXYZ");
  far.replace(kCodecFrameRawBytes - 4, 4, "WXYZ");
  const LzLayout far_layout = roundTrip(far, "largest offset");
  EXPECT_TRUE(anyUnit(far_layout, [](const LzUnit& u) {
    return u.offset == kCodecFrameRawBytes - 4 && u.match_len == 4;
  }));

  // Literal and match lengths past 15 + 255 need two extension bytes.
  const std::string noise = incompressibleBytes(1000, 31);
  const LzLayout long_layout = roundTrip(noise + noise, "long lengths");
  EXPECT_TRUE(anyUnit(long_layout, [](const LzUnit& u) {
    return u.lit_len > 15 + 255 && u.match_len > 15 + 255;
  }));

  // Backward extension reaching the anchor. After 64 straight misses the
  // matcher probes every other byte, so in 400 noise bytes position 65 is
  // never probed but 66 is. A run of 'Z's (one match) ends exactly where a
  // copy of noise[65..400) starts: the probe there misses, the next one
  // hits position 66, and the match grows back by one byte to the anchor.
  const std::string r = incompressibleBytes(400, 77);
  const std::string back = r + std::string(40, 'Z') + r.substr(65);
  const LzLayout back_layout = roundTrip(back, "backward extension");
  ASSERT_EQ(back_layout.frames.size(), 1u);
  const size_t copy_at = r.size() + 40;
  EXPECT_TRUE(std::any_of(
      back_layout.frames[0].begin(), back_layout.frames[0].end(),
      [&](const LzUnit& u) {
        return u.lit_len == 0 && u.offset == copy_at - 65 &&
               u.match_len == r.size() - 65;
      }));

  // All zeros collapse to a few units per frame.
  const std::string zeros(3 * kCodecFrameRawBytes, '\0');
  const Bytes zero_stream = codecEncode(CodecKind::kMhLz, zeros);
  EXPECT_LT(zero_stream.size(), 3 * 300u);
  EXPECT_EQ(codecDecode(zero_stream).view(), zeros);

  // Random bytes come back as stored frames.
  const LzLayout random_layout =
      roundTrip(incompressibleBytes(3 * kCodecFrameRawBytes + 9, 5), "random");
  EXPECT_EQ(random_layout.compressed_frames, 0u);
  EXPECT_EQ(random_layout.stored_frames, 4u);
}

/// The raw bytes behind kLegacyStream.
std::string legacyRaw() {
  std::string raw;
  for (int i = 0; i < 3; ++i) {
    raw += "the namenode journals every edit before it acks; ";
  }
  Rng rng(2014);
  for (int i = 0; i < 300; ++i) raw.push_back(static_cast<char>(rng.next()));
  raw += std::string(300, '=');
  raw += "mapreduce shuffle sort spill merge mapreduce shuffle sort spill "
         "merge\n";
  return raw;
}

/// legacyRaw() as encoded by the hash-chain matcher that mh-lz used before
/// the single-probe one (up to 32 chain candidates per position). Streams
/// written then live on in FileBlockStore replicas and spill runs; the
/// decoder must keep reading them.
constexpr const char* kLegacyStream =
    "4d48433101b1060194036df66017ff22746865206e616d656e6f6465206a6f75"
    "726e616c732065766572792065646974206265666f72652069742061636b733b"
    "2031004fffff1fb61bef070d6718ef9c2951382ee9d75f7fea7a67e7dbfc6aec"
    "36078d3b1649960b1565c4374d0d5967be817e500225d742de59f30ec55f8e09"
    "a0355a478a80ca3dcf9ff0c597c18a18f4cb22183d877f810a718548da045058"
    "29d472b12aa9c8b2952be758fec5a1c14a51fb4f539574ec714e0fb8323c96c9"
    "eb24c34e56826f201e2fea5d1363c1ad4bd6dbb225f64fcb9008b5f619f684a5"
    "29429ce0c49d1ffe26d5069347f76d55b2675f4f6dd8a920a98dcf0edb736402"
    "17643c34933b4011d137e2e9ebf8fc78f9ab849a815672df5d8790835a9ba751"
    "2925765201950cf708bf7754a67374999e028eae968e94881dab705908c6b038"
    "4de8dac87a32f37a6d58e49c06deb9e5fbee4387cc126fe638dd867dcc8c7c4d"
    "fd6ef03dc83faf9c6dc5d4aaa4e0fd884b35713d0100ff19ff146d6170726564"
    "7563652073687566666c6520736f7274207370696c6c206d657267652023000f"
    "100a";

TEST(CodecTest, LegacyChainMatcherStreamStillDecodes) {
  std::string stream;
  const std::string_view hex = kLegacyStream;
  for (size_t i = 0; i < hex.size(); i += 2) {
    stream.push_back(
        static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr,
                                    16)));
  }
  const LzLayout layout = lzLayout(stream);
  ASSERT_EQ(layout.compressed_frames, 1u);
  EXPECT_EQ(codecDecode(stream).view(), legacyRaw());
}

TEST(CodecTest, SortRowsShrinkAtLeastTwoAndAHalfTimes) {
  // The ratio floor keeps a matcher that silently stores everything (or
  // finds almost nothing) from passing the round-trip tests.
  const std::string raw = sortRows(20'000, 7);
  const Bytes stream = codecEncode(CodecKind::kMhLz, raw);
  EXPECT_EQ(codecDecode(stream).view(), raw);
  const double ratio =
      static_cast<double>(raw.size()) / static_cast<double>(stream.size());
  EXPECT_GE(ratio, 2.5);
}

TEST(CodecTest, RandomizedRoundTripSweep) {
  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = rng.next() % 20000;
    std::string raw(n, '\0');
    // Mix runs, repeats, and noise so both codecs see both branch shapes.
    size_t i = 0;
    while (i < n) {
      const uint64_t pick = rng.next();
      const size_t len = std::min<size_t>(n - i, 1 + pick % 97);
      const char c = static_cast<char>('a' + pick % 17);
      if (pick % 3 == 0) {
        for (size_t k = 0; k < len; ++k) raw[i + k] = c;
      } else {
        for (size_t k = 0; k < len; ++k) {
          raw[i + k] = static_cast<char>(rng.next() & 0xff);
        }
      }
      i += len;
    }
    for (CodecKind kind : kCodecs) {
      const Bytes stream = codecEncode(kind, raw);
      ASSERT_EQ(codecDecode(stream).view(), raw)
          << codecName(kind) << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace mh

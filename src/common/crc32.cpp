#include "mh/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace mh {

namespace {

// Slice-by-8 CRC-32C, reflected polynomial 0x82F63B78. Table k holds the
// CRC contribution of a byte that is k positions ahead of the current one,
// so eight input bytes fold into the running CRC with eight table lookups
// and no inter-byte dependency chain (~8x the bytewise loop's throughput).
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables makeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr SliceTables kTables = makeTables();

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial, eight
/// bytes per instruction.
__attribute__((target("sse4.2"))) uint32_t crc32cSse42(std::string_view data,
                                                       uint32_t seed) {
  uint64_t crc = ~seed;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = _mm_crc32_u64(crc, chunk);
    p += 8;
    n -= 8;
  }
  auto crc_tail = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc_tail = _mm_crc32_u8(crc_tail, static_cast<uint8_t>(*p));
    ++p;
    --n;
  }
  return ~crc_tail;
}
#endif

using CrcFn = uint32_t (*)(std::string_view, uint32_t);

CrcFn selectCrc() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32cSse42;
#endif
  return crc32cPortable;
}

}  // namespace

uint32_t crc32c(std::string_view data, uint32_t seed) {
  static const CrcFn impl = selectCrc();
  return impl(data, seed);
}

uint32_t crc32cPortable(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  const char* p = data.data();
  size_t n = data.size();

  // The 8-byte folding step assumes the chunk's bytes land little-endian in
  // the two 32-bit halves; on a big-endian target fall through to the
  // bytewise tail loop for the whole input (results are identical).
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      uint64_t chunk;
      std::memcpy(&chunk, p, 8);
      const uint32_t lo = crc ^ static_cast<uint32_t>(chunk);
      const uint32_t hi = static_cast<uint32_t>(chunk >> 32);
      crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n > 0) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
    ++p;
    --n;
  }
  return ~crc;
}

}  // namespace mh

#pragma once

#include <cstdint>
#include <string_view>

/// \file crc32.h
/// CRC-32C (Castagnoli) — the checksum HDFS uses for block data integrity.
/// DataNodes store one CRC per 512-byte chunk in each block's .meta sidecar
/// and re-verify on every read and during periodic block scans.

namespace mh {

/// Computes CRC-32C over `data`, continuing from `seed` (0 for a fresh CRC).
/// Uses the SSE4.2 `crc32` instruction when the CPU has it (checked once at
/// first call), and crc32cPortable otherwise.
uint32_t crc32c(std::string_view data, uint32_t seed = 0);

/// The table-driven (slice-by-8) CRC-32C that crc32c falls back to on CPUs
/// without SSE4.2. Exposed so tests can hold both paths to the same answers.
uint32_t crc32cPortable(std::string_view data, uint32_t seed = 0);

}  // namespace mh

// CRC-32 (IEEE 802.3 polynomial, reflected) for checkpoint integrity.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace tcio {

namespace detail {
constexpr std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();
}  // namespace detail

/// Per-byte digest/verify throughput charged to virtual time by every
/// checksum domain (DESIGN.md §11). Hardware-folded CRC32 (PCLMUL class)
/// runs near memory speed and overlaps the copy pass that is already
/// charged, so only the residual per-byte cost appears here.
inline constexpr double kChecksumBandwidth = 50.0e9;

/// Incremental CRC-32: pass the previous return value as `seed` to chain.
constexpr std::uint32_t crc32(std::span<const std::byte> data,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c = detail::kCrcTable[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace tcio

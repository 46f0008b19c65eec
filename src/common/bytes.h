// Byte-buffer helpers shared across the library: hex formatting,
// little-endian loads/stores (the MSP430 is little-endian), and the
// splitmix64 finalizer.
#ifndef DIALED_COMMON_BYTES_H
#define DIALED_COMMON_BYTES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dialed {

using byte_vec = std::vector<std::uint8_t>;

/// Lowercase hex string of a byte span ("deadbeef"); no separators.
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Parse a hex string (even length, upper or lower case). Throws
/// dialed::error on malformed input.
byte_vec from_hex(const std::string& hex);

/// Format a 16-bit value as "0x%04x".
std::string hex16(std::uint16_t v);

/// Little-endian 16-bit load from `bytes[offset..offset+1]`.
constexpr std::uint16_t load_le16(std::span<const std::uint8_t> bytes,
                                  std::size_t offset) {
  return static_cast<std::uint16_t>(bytes[offset] |
                                    (bytes[offset + 1] << 8));
}

/// Little-endian 16-bit store to `bytes[offset..offset+1]`.
constexpr void store_le16(std::span<std::uint8_t> bytes, std::size_t offset,
                          std::uint16_t v) {
  bytes[offset] = static_cast<std::uint8_t>(v & 0xff);
  bytes[offset + 1] = static_cast<std::uint8_t>(v >> 8);
}

/// Little-endian 32-bit load from `bytes[offset..offset+3]`.
constexpr std::uint32_t load_le32(std::span<const std::uint8_t> bytes,
                                  std::size_t offset) {
  return static_cast<std::uint32_t>(bytes[offset]) |
         (static_cast<std::uint32_t>(bytes[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(bytes[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(bytes[offset + 3]) << 24);
}

/// Little-endian 32-bit store to `bytes[offset..offset+3]`.
constexpr void store_le32(std::span<std::uint8_t> bytes, std::size_t offset,
                          std::uint32_t v) {
  bytes[offset] = static_cast<std::uint8_t>(v & 0xff);
  bytes[offset + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  bytes[offset + 2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  bytes[offset + 3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

/// splitmix64 finalizer: cheap, well-mixed, a bijection on 64 bits, and
/// stable across builds (unlike std::hash, whose value is
/// implementation-defined) — what a persisted placement or a key
/// derivation may depend on.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace dialed

#endif  // DIALED_COMMON_BYTES_H

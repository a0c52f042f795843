// GDSII stream-format primitives: record tags, big-endian packing and the
// excess-64 base-16 8-byte real used by the UNITS record.
#pragma once

#include <cstdint>
#include <vector>

namespace ofl::gds {

// Record type byte << 8 | data type byte, as conventionally written.
enum class RecordTag : std::uint16_t {
  kHeader = 0x0002,
  kBgnLib = 0x0102,
  kLibName = 0x0206,
  kUnits = 0x0305,
  kEndLib = 0x0400,
  kBgnStr = 0x0502,
  kStrName = 0x0606,
  kEndStr = 0x0700,
  kBoundary = 0x0800,
  kSref = 0x0A00,
  kAref = 0x0B00,
  kLayer = 0x0D02,
  kDataType = 0x0E02,
  kXy = 0x1003,
  kEndEl = 0x1100,
  kSname = 0x1206,
  kColRow = 0x1302,
};

/// Appends big-endian bytes to `out`.
void putU16(std::vector<std::uint8_t>& out, std::uint16_t v);
void putI32(std::vector<std::uint8_t>& out, std::int32_t v);

/// Reads big-endian values; caller guarantees bounds. Inline: the record
/// reader calls them for every field of every record.
inline std::uint16_t getU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline std::int32_t getI32(const std::uint8_t* p) {
  const std::uint32_t u = (static_cast<std::uint32_t>(p[0]) << 24) |
                          (static_cast<std::uint32_t>(p[1]) << 16) |
                          (static_cast<std::uint32_t>(p[2]) << 8) |
                          static_cast<std::uint32_t>(p[3]);
  return static_cast<std::int32_t>(u);
}

/// IBM hex floating point (GDSII REAL8): sign bit, 7-bit excess-64 base-16
/// exponent, 56-bit mantissa.
std::uint64_t encodeReal8(double value);
double decodeReal8(std::uint64_t bits);

}  // namespace ofl::gds

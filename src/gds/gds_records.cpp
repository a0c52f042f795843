#include "gds/gds_records.hpp"

#include <cmath>

namespace ofl::gds {

void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void putI32(std::vector<std::uint8_t>& out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  out.push_back(static_cast<std::uint8_t>(u >> 24));
  out.push_back(static_cast<std::uint8_t>((u >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((u >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(u & 0xFF));
}

std::uint64_t encodeReal8(double value) {
  if (value == 0.0) return 0;
  std::uint64_t sign = 0;
  if (value < 0) {
    sign = 1ull << 63;
    value = -value;
  }
  // Normalize mantissa into [1/16, 1) with a base-16 exponent.
  int exponent = 0;
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  const auto mantissa =
      static_cast<std::uint64_t>(std::round(value * std::pow(2.0, 56)));
  return sign | (static_cast<std::uint64_t>(exponent + 64) << 56) | mantissa;
}

double decodeReal8(std::uint64_t bits) {
  if (bits == 0) return 0.0;
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const std::uint64_t mantissa = bits & 0x00FFFFFFFFFFFFFFull;
  double value = static_cast<double>(mantissa) / std::pow(2.0, 56);
  value *= std::pow(16.0, exponent);
  return negative ? -value : value;
}

}  // namespace ofl::gds

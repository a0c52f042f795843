#include "common/hash.hpp"

#include <cstring>

namespace ofl {
namespace {
constexpr std::uint64_t kPrime = 1099511628211ull;

// XXH64's primes.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t mixWord(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t mergeRound(std::uint64_t h, std::uint64_t lane) {
  return (h ^ mixWord(0, lane)) * kP1 + kP4;
}
}  // namespace

void Fnv1a64::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= kPrime;
  }
}

void Fnv1a64::u64(std::uint64_t v) {
  // Byte-order-independent: feed the value little-endian byte by byte.
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= kPrime;
  }
}

void Fnv1a64::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Fnv1a64::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  Fnv1a64 h;
  h.bytes(data, n);
  return h.digest();
}

std::uint64_t wordHash64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = kP5;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = mixWord(v1, load64(p));
      v2 = mixWord(v2, load64(p + 8));
      v3 = mixWord(v3, load64(p + 16));
      v4 = mixWord(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = mergeRound(mergeRound(mergeRound(mergeRound(h, v1), v2), v3), v4);
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h = rotl(h ^ mixWord(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) {
  Fnv1a64 h;
  h.u64(a);
  h.u64(b);
  return h.digest();
}

}  // namespace ofl

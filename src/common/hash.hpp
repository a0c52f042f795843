// Stable 64-bit content hashing (FNV-1a).
//
// Used wherever the library needs a deterministic fingerprint of structured
// data — notably the batch service's result-cache keys, which must be stable
// across runs, platforms and thread counts. Not cryptographic; collision
// resistance is the 64-bit birthday bound, which is ample for cache keying
// (a false hit needs two distinct inputs in the same cache generation to
// collide).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ofl {

/// Streaming FNV-1a accumulator. Feed values through the typed mixers and
/// read the digest at any point; the digest depends on the exact byte
/// sequence fed, so callers should fix a field order and keep it stable.
class Fnv1a64 {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u64(static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(v))); }
  void boolean(bool v) { u64(v ? 1u : 0u); }
  /// Hashes the IEEE-754 bit pattern (so -0.0 != 0.0; callers that care
  /// should normalize first — the option structs never produce -0.0).
  void f64(double v);
  /// Length-prefixed, so ("ab","c") and ("a","bc") differ.
  void str(const std::string& s);

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

/// One-shot convenience over a byte buffer.
std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Word-wise 64-bit hash of a byte buffer, for inputs too large to feed
/// FNV-1a a byte at a time: XXH64's construction (four independent
/// 8-byte lanes over 32-byte stripes, then the tail and an avalanche), so
/// it runs at memory speed. Words are read in host byte order, so the
/// digest is only stable on one platform: key in-memory state with it,
/// never anything persisted.
std::uint64_t wordHash64(const void* data, std::size_t n);

/// Mixes two 64-bit hashes into one (order-sensitive).
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

}  // namespace ofl

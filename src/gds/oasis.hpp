// OASIS-style compact layout serialization ("OFL-OASIS").
//
// The contest motivates the file-size score with layout-storage cost and
// names OASIS as the compact alternative to GDSII (paper Section 1). This
// module implements the OASIS *techniques* — LEB128 variable-length
// integers, modal variables (layer/datatype/width/height persist across
// records), signed coordinate deltas, and grid repetitions — on the same
// Library model the GDS writer uses. The container framing is our own
// (magic "OFLOASIS1"), i.e. this is an OASIS-flavored format, not a
// bit-compatible SEMI OASIS stream; see DESIGN.md.
//
// Typical result: 3-6x smaller than the equivalent GDSII stream for flat
// fill output, more when repetitions apply.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gds/gds_writer.hpp"
#include "gds/stream_reader.hpp"

namespace ofl::gds {

class OasisWriter {
 public:
  static std::vector<std::uint8_t> serialize(const Library& lib);
  static long long writeFile(const Library& lib, const std::string& path);
  /// Size the serialized stream would have.
  static long long streamSize(const Library& lib);
};

class OasisReader {
 public:
  static std::optional<Library> parse(std::span<const std::uint8_t> bytes);
};

/// Chunked OFL-OASIS scanner: the OASIS counterpart of StreamReader.
/// Decodes records (varints read incrementally) from a bounded buffer and
/// fires the same StreamEvents, so layout files of either format load
/// through one bounded-memory front end (gds/layout_scan.hpp).
class OasisStreamReader {
 public:
  struct Options {
    std::size_t chunkBytes = 256 * 1024;
    /// Cap on one string payload (cell/library names). parse() accepts
    /// anything that fits in the file; the streaming path bounds its
    /// buffer explicitly instead.
    std::size_t maxStringBytes = 1 << 20;
  };

  static bool scan(const std::string& path, StreamEvents& events,
                   std::string* error);
  static bool scan(const std::string& path, StreamEvents& events,
                   std::string* error, const Options& options);
};

// Exposed for tests: LEB128 unsigned and zigzag-signed varints.
void putVarUint(std::vector<std::uint8_t>& out, std::uint64_t v);
void putVarInt(std::vector<std::uint8_t>& out, std::int64_t v);
/// Reads a varint at `pos`, advancing it; nullopt on truncation/overflow.
std::optional<std::uint64_t> getVarUint(std::span<const std::uint8_t> bytes,
                                        std::size_t& pos);
std::optional<std::int64_t> getVarInt(std::span<const std::uint8_t> bytes,
                                      std::size_t& pos);

}  // namespace ofl::gds

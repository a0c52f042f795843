// Cache hits written from the input's own wire records.
//
// Layout::writeGds emits a flat layout as the library prologue, TOP's
// header, then per layer its wires (datatype 0) followed by its fills
// (datatype 1), each one 64-byte rect element, then the tail. A flat
// GDSII input written the same way (Layout::writeGds, or Layout::toGds +
// Writer::writeFile: the same bytes) therefore holds each layer's wire
// elements verbatim as one run. WireSplice records where those runs sit in
// one input file, and writeSpliced emits prologue + (run + cached fills)
// per layer + tail: by construction the bytes of parsing the input,
// CachedFill::applyTo and writeGds, without the parse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "layout/layout.hpp"

namespace ofl::service {

struct CachedFill;

struct WireSplice {
  /// `count` wire elements (64 bytes each) starting at byte `offset`.
  struct Run {
    std::size_t offset = 0;
    std::size_t count = 0;
  };
  std::size_t inputBytes = 0;  // length of the input the runs index
  std::vector<Run> layers;     // one run per layout layer, in layer order

  /// Bytes charged to the result cache for holding this splice.
  std::size_t footprint() const { return 128 + 16 * layers.size(); }
};

/// Finds, for every layer of `chip` (just parsed from `input`), a run of
/// `input` equal to the bytes writeGds emits for that layer's wires.
/// nullopt when some layer has none: hierarchical, polygon, reordered or
/// re-typed wires, or wires not stored in layer order.
std::optional<WireSplice> findWireSpans(std::span<const std::uint8_t> input,
                                        const layout::Layout& chip);

/// True when `splice` can index `input`: the input length it was learned
/// on, every run inside the input, and every element in a run framed as a
/// datatype-0 rect on its layer (BOUNDARY, LAYER, DATATYPE, a five-point
/// XY and ENDEL). Never reads outside `input`.
bool validSplice(std::span<const std::uint8_t> input, const WireSplice& splice);

/// Writes the spliced GDSII stream: `input`'s wire runs with `fills`'
/// layers (which must number splice.layers.size()). Returns the byte
/// count, or -1 on IO failure.
long long writeSpliced(std::span<const std::uint8_t> input,
                       const WireSplice& splice, const CachedFill& fills,
                       const std::string& path);

}  // namespace ofl::service

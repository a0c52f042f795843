// Layout file I/O for the batch service and the CLI: one load pass (from
// the file, or from its bytes already in memory) and one writer entry
// point, each the single trace probe of its stage (`layout.load`,
// `gds.write`).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "layout/layout.hpp"
#include "service/job.hpp"

namespace ofl::service {

/// Loads a layout from a GDS or OFL-OASIS file (told apart by its magic)
/// in one streamed pass, with no intermediate Library: the first
/// structure's hierarchy is expanded and every boundary on GDS layer
/// l >= 1 decomposed straight into layer l-1's fills (datatype 1) or
/// wires (any other datatype); layers below 1 are dropped. The die is
/// `die` when given (shapes are not clipped to it), else the bbox of every
/// structure's boundaries; the layer count is the highest GDS layer seen
/// (floor 1). Returns false and sets `*error` (never null) on unreadable
/// files, non-Manhattan boundaries, references back to the top cell, or
/// an empty layout with no die.
bool loadFlatLayout(const std::string& path,
                    const std::optional<geom::Rect>& die, layout::Layout* out,
                    std::string* error);

/// loadFlatLayout over a GDSII file already read into memory: the same
/// layout and the same rejections from `bytes`, which were read from
/// `path` (named in errors only).
bool loadFlatGds(std::span<const std::uint8_t> bytes, const std::string& path,
                 const std::optional<geom::Rect>& die, layout::Layout* out,
                 std::string* error);

/// Reads the whole file at `path` into `*bytes`. False when it cannot be
/// opened or read.
bool readFileBytes(const std::string& path, std::vector<std::uint8_t>* bytes);

/// Writes `chip` as GDSII or OFL-OASIS, flat or compacted
/// (layout::toCompactGds). Flat GDSII streams straight from the layout
/// (Layout::writeGds); only the compact and OASIS forms build a Library.
/// Returns the byte count, or -1 on IO failure.
long long writeLayout(const layout::Layout& chip, const std::string& path,
                      OutputFormat format, bool compact);

}  // namespace ofl::service

// Hierarchy flattening of a Library already in memory: resolves SREF/AREF
// instances into plain boundaries (Layout::fromGds, and tests that check
// compaction is lossless). Layout files load through FlattenStream
// (gds/stream_flatten.hpp), which yields the same boundaries in the same
// order but rejects a reference back to the top cell.
#pragma once

#include "gds/gds_writer.hpp"

namespace ofl::gds {

/// Returns the cell named `top` (default: first cell) with every
/// reference expanded recursively into plain boundaries (translation only
/// — the subset this library writes). Unresolvable cell names are
/// skipped. `maxDepth` bounds recursion against reference cycles.
Cell flattenCell(const Library& lib, const std::string& top = "",
                 int maxDepth = 8);

}  // namespace ofl::gds

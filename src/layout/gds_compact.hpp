// Hierarchical (fill-array) GDS output.
//
// Dummy fill is overwhelmingly regular: the candidate generator emits
// grids of equal-size cells. Encoding each run as a GDSII AREF of a shared
// per-size fill cell instead of N flat boundaries cuts the output stream
// dramatically — and file size is a scored objective (paper Section 1:
// "large number of fills ... increases the cost of layout storage").
//
// Detection is exact and lossless: fills are grouped by (width, height),
// split into x-runs of >= minRunLength equal-pitch shapes per row, and
// equal x-runs stacked at a constant y pitch merge into 2-D arrays.
// Flattening the result (gds::flattenCell) reproduces the input rects
// exactly.
#pragma once

#include "gds/gds_writer.hpp"
#include "layout/layout.hpp"

namespace ofl::layout {

struct CompactOptions {
  /// Minimum shapes in a run before an AREF pays off (an AREF costs about
  /// as much as two boundaries).
  int minRunLength = 3;
};

/// Hierarchical equivalent of Layout::toGds(): wires stay flat in TOP;
/// fill arrays become AREFs of per-size "FILL_<w>x<h>_L<layer>" cells.
gds::Library toCompactGds(const Layout& layout,
                          const CompactOptions& options = {},
                          const std::string& topName = "TOP");

}  // namespace ofl::layout

// Feasible fill region extraction (paper Fig. 3, "Initial Fill Regions").
//
// The fill region of a layer is the die area minus wires inflated by the
// min fill-to-wire spacing. Computed per window so each window carries its
// own free space for planning and candidate generation.
#pragma once

#include <span>
#include <vector>

#include "geometry/region.hpp"
#include "layout/design_rules.hpp"
#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl::layout {

/// Per-window fill regions for one layer, indexed by WindowGrid::flatIndex.
/// The regions already honor fill-to-wire spacing and die clipping; they do
/// NOT yet honor min width/area (candidate generation handles that).
///
/// When `blockedOut` is given it receives the per-window inflated-wire
/// clips the regions were derived from, i.e. the exact rect sets with
/// region[w] == windowRect(w) minus the union of blockedOut[w]. Downstream
/// kernels use that identity to recompute region combinations from the few
/// source shapes instead of the many decomposed slabs (candidate
/// generation's shared-region kernel).
std::vector<geom::Region> computeFillRegions(
    const Layout& layout, int layer, const WindowGrid& grid,
    const DesignRules& rules,
    std::vector<std::vector<geom::Rect>>* blockedOut = nullptr);

/// The window rows [j0, j1] that `r`'s minSpacing-inflated extent
/// touches: a wire near a row border blocks space in the adjacent row too,
/// and its plain extent lies inside the inflated one. False when the
/// inflated rect is empty (it touches no row).
bool routedRows(const WindowGrid& grid, const DesignRules& rules,
                const geom::Rect& r, int& j0, int& j1);

/// Appends each rect, in input order, to the rows of `band` (window rows
/// firstRow .. firstRow + band.size() - 1) among its routedRows: routing
/// every rect of a layer makes band[r] the `rowRects` bucketRow expects
/// for row firstRow + r.
void routeRows(const WindowGrid& grid, const DesignRules& rules,
               std::span<const geom::Rect> rects, int firstRow,
               std::vector<std::vector<geom::Rect>>& band);

/// Clips the rects routed to window row `j` into that row's per-window
/// buckets, indexed by column: `wires` gets the plain clips and `blocked`
/// the minSpacing-inflated ones. `rowRects` must hold, in input order,
/// every rect whose inflated extent touches row j; the buckets then equal
/// WindowGrid::bucketClipped of the plain / inflated rects restricted to
/// row j, in content and order. Non-empty outputs must have grid.cols()
/// buckets and are cleared first; an empty span skips that kind.
void bucketRow(const WindowGrid& grid, const DesignRules& rules, int j,
               std::span<const geom::Rect> rowRects,
               std::span<std::vector<geom::Rect>> wires,
               std::span<std::vector<geom::Rect>> blocked);

/// The window minus the union of its blocked clips.
geom::Region windowFillRegion(const geom::Rect& window,
                              std::span<const geom::Rect> blocked);

/// Whole-layer fill region (union over windows); used by baselines that do
/// not operate window-by-window.
geom::Region computeLayerFillRegion(const Layout& layout, int layer,
                                    const DesignRules& rules);

}  // namespace ofl::layout

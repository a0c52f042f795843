// Per-window density bounds l(i,j), u(i,j) (paper Section 3.1).
//
// Lower bound: existing wire density (fills only add area). Upper bound:
// wire density plus the window's whole free area when a legal fill fits
// anywhere in it, and plus nothing when none does, capped by the
// max-density rule. A fill fits when some point of the free space admits a
// minWidth x minWidth square, i.e. the region survives erosion by
// floor(minWidth/2). The rule is all-or-nothing: once one square fits,
// slivers elsewhere in the window count too.
//
// The test is geom::erodedEmpty, which decides almost every window
// from its canonical rects (one with both sides > minWidth) or its bbox
// (a side <= minWidth - 1) and erodes only the rare regions neither settles.
#pragma once

#include <span>
#include <vector>

#include "density/density_map.hpp"
#include "geometry/region.hpp"
#include "layout/design_rules.hpp"
#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl::density {

struct DensityBounds {
  std::vector<double> lower;  // l(i,j), flat-indexed
  std::vector<double> upper;  // u(i,j)
};

/// One window's [lower, upper] pair.
struct WindowBound {
  double lower = 0.0;
  double upper = 0.0;
};

/// Bound arithmetic for a single window: `wireDensity` is the window's
/// wire-only density, `windowArea` its true (edge-clipped) area,
/// `fillRegion` its free space as pairwise-disjoint rects in any order
/// (neither the area nor the erosion test depends on the order).
/// computeBounds and the engines' row tasks all call this, so every path
/// agrees by construction.
WindowBound computeWindowBound(double wireDensity, geom::Area windowArea,
                               std::span<const geom::Rect> fillRegion,
                               const layout::DesignRules& rules);
inline WindowBound computeWindowBound(double wireDensity,
                                      geom::Area windowArea,
                                      const geom::Region& fillRegion,
                                      const layout::DesignRules& rules) {
  return computeWindowBound(wireDensity, windowArea, fillRegion.rects(),
                            rules);
}

/// Bounds for one layer from its wire densities and per-window fill
/// regions (from layout::computeFillRegions), on the calling thread.
DensityBounds computeBounds(const layout::Layout& layout, int layer,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules);

}  // namespace ofl::density

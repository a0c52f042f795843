#include "density/bounds.hpp"

#include <algorithm>

namespace ofl::density {

WindowBound computeWindowBound(double wireDensity, geom::Area windowArea,
                               std::span<const geom::Rect> fillRegion,
                               const layout::DesignRules& rules) {
  // A legal fill fits iff some covered point admits a minWidth x minWidth
  // square, i.e. survives erosion by floor(minWidth/2) (one DBU stricter
  // than needed for even widths); then the whole free area counts.
  geom::Area usable = 0;
  if (windowArea > 0 && !geom::erodedEmpty(fillRegion, rules.minWidth / 2)) {
    for (const geom::Rect& r : fillRegion) usable += r.area();
  }
  WindowBound bound;
  bound.lower = wireDensity;
  // The upper bound respects the foundry max-density rule unless the
  // wires alone already exceed it (the filler cannot remove wires).
  const double cap = std::max(rules.maxDensity, wireDensity);
  bound.upper =
      windowArea > 0
          ? std::min(cap, wireDensity +
                              static_cast<double>(usable) / windowArea)
          : wireDensity;
  return bound;
}

DensityBounds computeBounds(const layout::Layout& layout, int layer,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules) {
  const DensityMap wireDensity =
      DensityMap::computeFromShapes(layout.layer(layer).wires, grid);
  DensityBounds bounds;
  const auto n = static_cast<std::size_t>(grid.windowCount());
  bounds.lower.resize(n);
  bounds.upper.resize(n);
  static const geom::Region kEmptyRegion;
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
      const geom::Region& region =
          w < fillRegions.size() ? fillRegions[w] : kEmptyRegion;
      const WindowBound b = computeWindowBound(
          wireDensity.at(i, j), grid.windowRect(i, j).area(), region, rules);
      bounds.lower[w] = b.lower;
      bounds.upper[w] = b.upper;
    }
  }
  return bounds;
}

}  // namespace ofl::density

#include "layout/fill_region.hpp"

#include <algorithm>

#include "geometry/boolean.hpp"

namespace ofl::layout {

std::vector<geom::Region> computeFillRegions(
    const Layout& layout, int layer, const WindowGrid& grid,
    const DesignRules& rules,
    std::vector<std::vector<geom::Rect>>* blockedOut) {
  std::vector<std::vector<geom::Rect>> rowRects(
      static_cast<std::size_t>(grid.rows()));
  routeRows(grid, rules, layout.layer(layer).wires, 0, rowRects);
  const auto cols = static_cast<std::size_t>(grid.cols());
  std::vector<std::vector<geom::Rect>> blocked(
      static_cast<std::size_t>(grid.windowCount()));
  std::vector<geom::Region> regions(blocked.size());
  for (int j = 0; j < grid.rows(); ++j) {
    const std::size_t first = static_cast<std::size_t>(j) * cols;
    bucketRow(grid, rules, j, rowRects[static_cast<std::size_t>(j)], {},
              std::span(blocked).subspan(first, cols));
    for (int i = 0; i < grid.cols(); ++i) {
      const std::size_t w = first + static_cast<std::size_t>(i);
      regions[w] = windowFillRegion(grid.windowRect(i, j), blocked[w]);
    }
  }
  if (blockedOut != nullptr) *blockedOut = std::move(blocked);
  return regions;
}

bool routedRows(const WindowGrid& grid, const DesignRules& rules,
                const geom::Rect& r, int& j0, int& j1) {
  const geom::Rect e = r.expanded(rules.minSpacing);
  if (e.empty()) return false;
  int i0, i1;
  grid.windowRange(e, i0, j0, i1, j1);
  return true;
}

void routeRows(const WindowGrid& grid, const DesignRules& rules,
               std::span<const geom::Rect> rects, int firstRow,
               std::vector<std::vector<geom::Rect>>& band) {
  const int lastRow = firstRow + static_cast<int>(band.size()) - 1;
  int j0, j1;
  for (const geom::Rect& r : rects) {
    if (!routedRows(grid, rules, r, j0, j1)) continue;
    for (int j = std::max(j0, firstRow); j <= std::min(j1, lastRow); ++j) {
      band[static_cast<std::size_t>(j - firstRow)].push_back(r);
    }
  }
}

void bucketRow(const WindowGrid& grid, const DesignRules& rules, int j,
               std::span<const geom::Rect> rowRects,
               std::span<std::vector<geom::Rect>> wires,
               std::span<std::vector<geom::Rect>> blocked) {
  for (auto& b : wires) b.clear();
  for (auto& b : blocked) b.clear();
  const auto clipInto = [&](const geom::Rect& r,
                            std::span<std::vector<geom::Rect>> buckets) {
    if (buckets.empty() || r.empty()) return;
    int i0, j0, i1, j1;
    grid.windowRange(r, i0, j0, i1, j1);
    if (j < j0 || j > j1) return;
    for (int i = i0; i <= i1; ++i) {
      const geom::Rect clip = r.intersection(grid.windowRect(i, j));
      if (!clip.empty()) buckets[static_cast<std::size_t>(i)].push_back(clip);
    }
  };
  for (const geom::Rect& r : rowRects) {
    clipInto(r.expanded(rules.minSpacing), blocked);
    clipInto(r, wires);
  }
}

geom::Region windowFillRegion(const geom::Rect& window,
                              std::span<const geom::Rect> blocked) {
  return geom::Region(window).subtract(blocked);
}

geom::Region computeLayerFillRegion(const Layout& layout, int layer,
                                    const DesignRules& rules) {
  std::vector<geom::Rect> inflated;
  inflated.reserve(layout.layer(layer).wires.size());
  for (const geom::Rect& w : layout.layer(layer).wires) {
    inflated.push_back(w.expanded(rules.minSpacing));
  }
  return geom::Region(layout.die()).subtract(inflated);
}

}  // namespace ofl::layout

// Uniform-grid spatial index over rectangles.
//
// Serves the whole-die checks: DRC's spacing and overlap lookups and the
// litho checker's forbidden-pitch scan, where one index over the die
// answers many small queries. The fill flow's window-local overlay and
// spacing pairs come from geom::OverlapSweep instead. A uniform grid suits
// these checks because fill shapes are small relative to the die and
// near-uniformly distributed by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"

namespace ofl::geom {

class GridIndex {
 public:
  /// Empty index; unusable until reset(). For scratch slots that are
  /// re-targeted window by window without reallocation.
  GridIndex() = default;

  /// `extent` is the indexed area; `cellSize` the square grid pitch.
  GridIndex(const Rect& extent, Coord cellSize);

  /// Re-targets the index to a new extent/pitch and drops all entries,
  /// reusing the cell-bucket allocations of earlier geometries.
  void reset(const Rect& extent, Coord cellSize);

  /// Inserts a rect with a caller-chosen id; rects outside the extent are
  /// clamped to the border cells so they are still discoverable.
  void insert(std::uint32_t id, const Rect& rect);

  /// Ids of all inserted rects whose cells intersect `query`. The result
  /// is deduplicated but the caller must still verify actual overlap
  /// against its own rect storage (the index stores ids only).
  std::vector<std::uint32_t> query(const Rect& query) const;

  /// Visits candidate ids without allocation; `fn(id)` may see duplicates
  /// filtered by an internal stamp, i.e. each id is visited once.
  template <typename Fn>
  void visit(const Rect& query, Fn&& fn) const {
    ++stamp_;
    int cx0, cy0, cx1, cy1;
    cellRange(query, cx0, cy0, cx1, cy1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (std::uint32_t id : cells_[cellOf(cx, cy)]) {
          if (seen_.size() <= id) seen_.resize(id + 1, 0);
          if (seen_[id] == stamp_) continue;
          seen_[id] = stamp_;
          fn(id);
        }
      }
    }
  }

  std::size_t cellCount() const { return cells_.size(); }

 private:
  std::size_t cellOf(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * nx_ + cx;
  }
  void cellRange(const Rect& r, int& cx0, int& cy0, int& cx1, int& cy1) const;

  Rect extent_;
  Coord cellSize_ = 1;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;
  mutable std::vector<std::uint64_t> seen_;
  mutable std::uint64_t stamp_ = 0;
};

}  // namespace ofl::geom

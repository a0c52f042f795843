// Shared helpers for the OpenFill test suite.
#pragma once

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "geometry/rect.hpp"
#include "verify/layout_gen.hpp"

namespace ofl::testutil {

/// Brute-force reference for Boolean ops: rasterize rect sets onto a unit
/// grid over [0, extent)^2. Only usable for small extents; that is the
/// point — an independently-trivial oracle.
class Raster {
 public:
  explicit Raster(int extent) : extent_(extent),
      cells_(static_cast<std::size_t>(extent) * extent, 0) {}

  void paint(const std::vector<geom::Rect>& rects) {
    for (const geom::Rect& r : rects) {
      for (geom::Coord y = std::max<geom::Coord>(r.yl, 0);
           y < std::min<geom::Coord>(r.yh, extent_); ++y) {
        for (geom::Coord x = std::max<geom::Coord>(r.xl, 0);
             x < std::min<geom::Coord>(r.xh, extent_); ++x) {
          cells_[static_cast<std::size_t>(y) * extent_ + x] = 1;
        }
      }
    }
  }

  long long area() const {
    long long a = 0;
    for (char c : cells_) a += c;
    return a;
  }

  /// Cell-wise combination of two rasters.
  static long long opArea(const Raster& a, const Raster& b, char op) {
    long long total = 0;
    for (std::size_t i = 0; i < a.cells_.size(); ++i) {
      total += keep(a, b, i, op) ? 1 : 0;
    }
    return total;
  }

  /// Canonical disjoint decomposition of the combination, derived from the
  /// cells alone: per unit column, the maximal covered y-runs; a run
  /// extends across columns while its interval is unchanged. Sorted by
  /// RectYXLess — the decomposition booleanOp must reproduce rect for
  /// rect.
  static std::vector<geom::Rect> opRects(const Raster& a, const Raster& b,
                                         char op) {
    const int n = a.extent_;
    std::vector<geom::Rect> out;
    std::map<std::pair<geom::Coord, geom::Coord>, geom::Coord> open;  // -> xl
    for (int x = 0; x <= n; ++x) {
      std::map<std::pair<geom::Coord, geom::Coord>, geom::Coord> next;
      for (int y = 0; x < n && y < n;) {
        if (!keep(a, b, static_cast<std::size_t>(y) * n + x, op)) {
          ++y;
          continue;
        }
        const int lo = y;
        while (y < n && keep(a, b, static_cast<std::size_t>(y) * n + x, op)) {
          ++y;
        }
        const auto run = std::make_pair<geom::Coord, geom::Coord>(lo, y);
        const auto it = open.find(run);
        next[run] = it == open.end() ? x : it->second;
        if (it != open.end()) open.erase(it);
      }
      for (const auto& [run, xl] : open) {
        out.push_back({xl, run.first, x, run.second});
      }
      open.swap(next);
    }
    std::sort(out.begin(), out.end(), geom::RectYXLess{});
    return out;
  }

 private:
  static bool keep(const Raster& a, const Raster& b, std::size_t i, char op) {
    const bool inA = a.cells_[i] != 0;
    const bool inB = b.cells_[i] != 0;
    switch (op) {
      case '|': return inA || inB;
      case '&': return inA && inB;
      case '-': return inA && !inB;
      case '^': return inA != inB;
    }
    return false;
  }

  int extent_;
  std::vector<char> cells_;
};

/// Random rect fully inside [0, extent)^2 with edges in [1, maxEdge].
/// Forwards to the shared seeded generator in src/verify/layout_gen.hpp so
/// tests and the fuzzer draw from the same distribution.
inline geom::Rect randomRect(Rng& rng, geom::Coord extent,
                             geom::Coord maxEdge) {
  return testing::LayoutGen::randomRect(rng, extent, maxEdge);
}

/// True when no two rects in the set overlap (O(n^2), test-sized inputs).
inline bool pairwiseDisjoint(const std::vector<geom::Rect>& rects) {
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      if (rects[i].overlaps(rects[j])) return false;
    }
  }
  return true;
}

}  // namespace ofl::testutil

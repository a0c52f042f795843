// Polygon-to-rectangle conversion (paper Section 3 step 1, ref [16]
// Gourley & Green) plus rectangle-set compaction helpers.
#pragma once

#include <optional>
#include <vector>

#include "geometry/polygon.hpp"
#include "geometry/rect.hpp"

namespace ofl::geom {

/// Decomposes one simple rectilinear polygon into disjoint rectangles using
/// horizontal slab sweeping with even-odd parity. Output rects are disjoint
/// and their areas sum to polygon.area().
std::vector<Rect> decompose(const Polygon& polygon);

/// decompose's fast path on a bare vertex list: a 4-vertex loop whose
/// edges alternate horizontal and vertical covers its bbox (empty when
/// the loop has zero width or height). nullopt for any other loop.
std::optional<Rect> rectLoop(const std::vector<Point>& v);

/// Decomposes a set of loops under even-odd fill rule: a point is inside
/// when covered by an odd number of loops. This is how GDSII/OASIS express
/// polygons with holes (hole loops listed alongside outer loops).
std::vector<Rect> decomposeEvenOdd(const std::vector<Polygon>& loops);

/// Merges rects that share a full vertical edge and identical y-span into
/// single wider rects; input must be disjoint. Reduces shape count (and
/// thus GDS file size) without changing covered area.
std::vector<Rect> mergeHorizontal(std::vector<Rect> rects);

/// Merges rects that share a full horizontal edge and identical x-span.
std::vector<Rect> mergeVertical(std::vector<Rect> rects);

/// In-place variant of mergeVertical for reused scratch buffers: same
/// sort + merge, compacting into the input vector instead of allocating.
void mergeVerticalInPlace(std::vector<Rect>& rects);

}  // namespace ofl::geom

// Scanline Boolean operations on rectilinear regions given as rectangle
// sets (rects within one set may overlap arbitrarily).
//
// This is the library's substitute for Boost.Polygon: a plane sweep along x
// with per-operand vertical coverage counts. Output rectangles are disjoint
// and maximally merged along x, in canonical RectYXLess order.
#pragma once

#include <span>
#include <vector>

#include "geometry/rect.hpp"

namespace ofl::geom {

enum class BoolOp {
  kUnion,      // covered by A or B
  kIntersect,  // covered by A and B
  kSubtract,   // covered by A and not B
  kXor,        // covered by exactly one of A, B
};

/// Full Boolean: returns the disjoint rectangle decomposition of op(A, B).
std::vector<Rect> booleanOp(std::span<const Rect> a, std::span<const Rect> b,
                            BoolOp op);

/// booleanOp into a caller-owned buffer (cleared first).
/// Emits the SAME disjoint decomposition as booleanOp but in sweep emission
/// order, skipping the canonical RectYXLess sort — for hot paths whose next
/// step imposes its own order anyway (e.g. candidate slicing re-sorts its
/// merged sources). Callers that need canonical order use booleanOp.
void booleanOpInto(std::span<const Rect> a, std::span<const Rect> b,
                   BoolOp op, std::vector<Rect>& out);

/// Area-only variant; avoids materializing output rectangles.
Area booleanArea(std::span<const Rect> a, std::span<const Rect> b, BoolOp op);

/// Area of the union of one (possibly self-overlapping) rect set. A
/// pairwise-disjoint set (edge- and corner-touching rects included) is
/// recognised by one scan in xl order and its areas summed, which is
/// exact; a set with an overlapping pair, or one whose scan runs past a
/// pair-test budget linear in its size, goes through the sweep
/// (booleanArea). Empty rects count for nothing either way.
Area unionArea(std::span<const Rect> rects);

/// Area of intersection of two rect sets — the overlay primitive (paper
/// Section 2.1 counts inter-layer overlap area once, however many shapes
/// cover it).
inline Area intersectionArea(std::span<const Rect> a,
                             std::span<const Rect> b) {
  return booleanArea(a, b, BoolOp::kIntersect);
}

/// Total overlap of `rect` with a shape set, summed PAIRWISE — the Eqn. 8
/// overlay kernel shared by candidate scoring and its spatial-index
/// variant. Shapes that overlap each other contribute once EACH (the
/// coupling model: a fill facing two stacked neighbor shapes couples to
/// both), so on self-overlapping sets the sum exceeds the covered area.
Area overlapAreaSum(const Rect& rect, std::span<const Rect> shapes);

/// overlapAreaSum restricted to pairwise-DISJOINT shape sets, where the
/// pairwise sum equals the covered overlap area exactly.
///
/// PRECONDITION (debug-asserted): `shapes` must be pairwise disjoint,
/// e.g. a Region's rects or one layer's sliced candidates. A caller that
/// swaps Region::overlapArea for this kernel but passes self-overlapping
/// rects would silently double-count — that is the bug class the assert
/// exists to catch; release builds do not check.
Area overlapAreaDisjoint(const Rect& rect, std::span<const Rect> shapes);

}  // namespace ofl::geom

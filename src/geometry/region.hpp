// Region: a value-semantic rectilinear area stored as a canonical disjoint
// rectangle set. Thin, convenient facade over the boolean engine for the
// fill flow (free-space computation, overlay measurement, clipping).
#pragma once

#include <span>
#include <vector>

#include "geometry/boolean.hpp"
#include "geometry/rect.hpp"

namespace ofl::geom {

class Region {
 public:
  Region() = default;
  /// From possibly-overlapping rects; normalizes to a disjoint set.
  explicit Region(std::span<const Rect> rects);
  explicit Region(const std::vector<Rect>& rects)
      : Region(std::span<const Rect>(rects)) {}
  explicit Region(const Rect& rect);

  /// Adopts rects that the caller guarantees are already disjoint
  /// (e.g. output of booleanOp); skips normalization.
  static Region fromDisjoint(std::vector<Rect> rects);

  const std::vector<Rect>& rects() const { return rects_; }
  bool empty() const { return rects_.empty(); }
  std::size_t count() const { return rects_.size(); }

  Area area() const;
  Rect bbox() const;

  /// Boolean combinations.
  Region unite(const Region& other) const;
  Region intersect(const Region& other) const;
  Region subtract(const Region& other) const;

  /// Region clipped to `window`.
  Region clipped(const Rect& window) const;

  /// Area of overlap with a raw rect set without materializing the result.
  /// Counts every covered point ONCE even when `other` self-overlaps (the
  /// boolean engine tracks coverage counts, not pairwise products) — unlike
  /// the pairwise-sum kernel overlapAreaSum(), which counts a point once
  /// per covering shape. The two agree only on pairwise-disjoint input;
  /// overlapAreaDisjoint() asserts exactly that.
  Area overlapArea(std::span<const Rect> other) const {
    return intersectionArea(rects_, other);
  }
  Area overlapArea(const Region& other) const {
    return overlapArea(other.rects_);
  }

  /// Region minus a raw (possibly self-overlapping) rect set, in one
  /// boolean sweep. Byte-identical to subtract(Region(other)) — the sweep
  /// output is a pure function of the covered point set — but skips the
  /// normalization pass over `other`.
  Region subtract(std::span<const Rect> other) const {
    return fromSweep(rects_, other, BoolOp::kSubtract);
  }

  /// Region shrunk by `d` DBU on all four sides of every covered point
  /// (morphological erosion). Used to keep fills `d` away from region
  /// boundaries. d must be >= 0.
  Region shrunk(Coord d) const;

  /// Exactly shrunk(d).empty(); see geom::erodedEmpty.
  bool erodedEmpty(Coord d) const;

  friend bool operator==(const Region&, const Region&) = default;

 private:
  /// The region op(a, b): one sweep, one canonical sort.
  static Region fromSweep(std::span<const Rect> a, std::span<const Rect> b,
                          BoolOp op);

  std::vector<Rect> rects_;  // disjoint, RectYXLess-sorted
};

/// Whether eroding the region covered by the pairwise-disjoint rects
/// `disjoint` (in any order) by `d` leaves nothing, i.e.
/// Region::fromDisjoint(disjoint).shrunk(d).empty(), usually without the
/// two boolean sweeps: the erosion is non-empty iff some (2d+1)-wide square
/// of unit cells is covered. A rect with both sides > 2d settles
/// "non-empty", a bbox side <= 2d settles "empty", and only regions neither
/// test decides fall back to the erosion.
bool erodedEmpty(std::span<const Rect> disjoint, Coord d);

}  // namespace ofl::geom

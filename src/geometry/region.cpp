#include "geometry/region.hpp"

#include <algorithm>

namespace ofl::geom {

Region::Region(std::span<const Rect> rects)
    : rects_(booleanOp(rects, {}, BoolOp::kUnion)) {}

Region::Region(const Rect& rect) {
  if (!rect.empty()) rects_.push_back(rect);
}

Region Region::fromDisjoint(std::vector<Rect> rects) {
  Region r;
  r.rects_ = std::move(rects);
  std::sort(r.rects_.begin(), r.rects_.end(), RectYXLess{});
  return r;
}

Area Region::area() const {
  Area total = 0;
  for (const Rect& r : rects_) total += r.area();
  return total;
}

Rect Region::bbox() const {
  Rect box;
  for (const Rect& r : rects_) box = box.bboxUnion(r);
  return box;
}

Region Region::fromSweep(std::span<const Rect> a, std::span<const Rect> b,
                         BoolOp op) {
  std::vector<Rect> out;
  booleanOpInto(a, b, op, out);
  return fromDisjoint(std::move(out));
}

Region Region::unite(const Region& other) const {
  return fromSweep(rects_, other.rects_, BoolOp::kUnion);
}

Region Region::intersect(const Region& other) const {
  return fromSweep(rects_, other.rects_, BoolOp::kIntersect);
}

Region Region::subtract(const Region& other) const {
  return fromSweep(rects_, other.rects_, BoolOp::kSubtract);
}

Region Region::clipped(const Rect& window) const {
  std::vector<Rect> out;
  for (const Rect& r : rects_) {
    const Rect c = r.intersection(window);
    if (!c.empty()) out.push_back(c);
  }
  return fromDisjoint(std::move(out));
}

namespace {

// Erosion of a non-empty rectilinear region = complement of the dilation
// of the complement. Implemented within an inflated bbox: grow the
// complement rects by d and subtract them from the region. Output in sweep
// order.
std::vector<Rect> erode(std::span<const Rect> rects, Coord d) {
  Rect box;
  for (const Rect& r : rects) box = box.bboxUnion(r);
  const Rect frame = box.expanded(d + 1);
  std::vector<Rect> complement;
  booleanOpInto(std::span(&frame, 1), rects, BoolOp::kSubtract, complement);
  for (Rect& r : complement) r = r.expanded(d);
  std::vector<Rect> out;
  booleanOpInto(rects, complement, BoolOp::kSubtract, out);
  return out;
}

}  // namespace

Region Region::shrunk(Coord d) const {
  if (d <= 0) return *this;
  if (rects_.empty()) return {};
  return fromDisjoint(erode(rects_, d));
}

bool Region::erodedEmpty(Coord d) const { return geom::erodedEmpty(rects_, d); }

bool erodedEmpty(std::span<const Rect> disjoint, Coord d) {
  const Coord side = 2 * d;
  Rect box;
  for (const Rect& r : disjoint) {
    if (r.width() > side && r.height() > side) return false;
    box = box.bboxUnion(r);
  }
  if (box.width() <= side || box.height() <= side) return true;
  return erode(disjoint, d).empty();
}

}  // namespace ofl::geom

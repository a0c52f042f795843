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

Region Region::unite(const Region& other) const {
  return fromDisjoint(booleanOp(rects_, other.rects_, BoolOp::kUnion));
}

Region Region::intersect(const Region& other) const {
  return fromDisjoint(booleanOp(rects_, other.rects_, BoolOp::kIntersect));
}

Region Region::subtract(const Region& other) const {
  return fromDisjoint(booleanOp(rects_, other.rects_, BoolOp::kSubtract));
}

Region Region::clipped(const Rect& window) const {
  std::vector<Rect> out;
  for (const Rect& r : rects_) {
    const Rect c = r.intersection(window);
    if (!c.empty()) out.push_back(c);
  }
  return fromDisjoint(std::move(out));
}

Region Region::shrunk(Coord d) const {
  if (d <= 0) return *this;
  // Erosion of a rectilinear region = complement of the dilation of the
  // complement. Implemented within an inflated bbox: grow the complement
  // rects by d and subtract from the original region.
  if (rects_.empty()) return {};
  const Rect box = bbox().expanded(d + 1);
  std::vector<Rect> boxRects{box};
  std::vector<Rect> complement = booleanOp(boxRects, rects_, BoolOp::kSubtract);
  for (Rect& r : complement) r = r.expanded(d);
  return fromDisjoint(booleanOp(rects_, complement, BoolOp::kSubtract));
}

}  // namespace ofl::geom

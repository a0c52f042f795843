#include "geometry/polygon.hpp"

#include <cstdlib>

namespace ofl::geom {

Polygon Polygon::fromRect(const Rect& r) {
  return Polygon({{r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}});
}

bool Polygon::isValidRectilinear() const {
  const std::size_t n = vertices_.size();
  if (n < 4 || n % 2 != 0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    const bool horizontal = (a.y == b.y && a.x != b.x);
    const bool vertical = (a.x == b.x && a.y != b.y);
    if (!horizontal && !vertical) return false;
    // Consecutive edges must alternate direction; two collinear edges in a
    // row indicate a redundant vertex, which we reject to keep loops
    // canonical.
    const Point& c = vertices_[(i + 2) % n];
    const bool nextHorizontal = (b.y == c.y && b.x != c.x);
    if (horizontal == nextHorizontal) return false;
  }
  return true;
}

Area Polygon::area() const {
  const std::size_t n = vertices_.size();
  if (n < 3) return 0;
  // Shoelace; for rectilinear loops each term is exact in 64-bit given the
  // < 2^31 coordinate bound documented in rect.hpp.
  Area twice = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    twice += static_cast<Area>(a.x) * b.y - static_cast<Area>(b.x) * a.y;
  }
  return std::llabs(twice) / 2;
}

Rect boundingBox(const std::vector<Point>& vertices) {
  if (vertices.empty()) return {};
  Rect r{vertices[0].x, vertices[0].y, vertices[0].x, vertices[0].y};
  for (const Point& p : vertices) {
    r.xl = std::min(r.xl, p.x);
    r.yl = std::min(r.yl, p.y);
    r.xh = std::max(r.xh, p.x);
    r.yh = std::max(r.yh, p.y);
  }
  return r;
}

bool isManhattan(const std::vector<Point>& vertices) {
  const std::size_t n = vertices.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices[i];
    const Point& b = vertices[(i + 1) % n];
    if (a.x != b.x && a.y != b.y) return false;
  }
  return true;
}

Rect Polygon::bbox() const { return boundingBox(vertices_); }

}  // namespace ofl::geom

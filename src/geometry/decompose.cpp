#include "geometry/decompose.hpp"

#include <algorithm>
#include <cassert>

namespace ofl::geom {
namespace {

struct VEdge {
  Coord x;
  Coord ylo;
  Coord yhi;
};

// Collects the vertical edges of each loop.
std::vector<VEdge> verticalEdges(const std::vector<Polygon>& loops) {
  std::vector<VEdge> edges;
  for (const Polygon& poly : loops) {
    const auto& v = poly.vertices();
    const std::size_t n = v.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Point& a = v[i];
      const Point& b = v[(i + 1) % n];
      if (a.x == b.x && a.y != b.y) {
        edges.push_back({a.x, std::min(a.y, b.y), std::max(a.y, b.y)});
      }
    }
  }
  return edges;
}

// Slab decomposition under even-odd parity across the given vertical edges.
std::vector<Rect> slabDecompose(const std::vector<VEdge>& edges) {
  std::vector<Rect> out;
  if (edges.empty()) return out;

  std::vector<Coord> ys;
  ys.reserve(edges.size() * 2);
  for (const VEdge& e : edges) {
    ys.push_back(e.ylo);
    ys.push_back(e.yhi);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  std::vector<Coord> xs;  // reused per slab
  for (std::size_t s = 0; s + 1 < ys.size(); ++s) {
    const Coord ylo = ys[s];
    const Coord yhi = ys[s + 1];
    xs.clear();
    for (const VEdge& e : edges) {
      if (e.ylo <= ylo && yhi <= e.yhi) xs.push_back(e.x);
    }
    std::sort(xs.begin(), xs.end());
    // Even-odd: consecutive pairs of crossings bound interior runs. A
    // repeated x (two coincident edges) cancels out, which the pairing
    // handles naturally since the pair spans zero width. The count is
    // even for Manhattan loops (isManhattan), which ingest enforces.
    assert(xs.size() % 2 == 0);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      if (xs[i] < xs[i + 1]) out.push_back({xs[i], ylo, xs[i + 1], yhi});
    }
  }
  return mergeHorizontal(std::move(out));
}

}  // namespace

std::optional<Rect> rectLoop(const std::vector<Point>& v) {
  if (v.size() != 4) return std::nullopt;
  const bool horizontalFirst = v[0].y == v[1].y && v[1].x == v[2].x &&
                               v[2].y == v[3].y && v[3].x == v[0].x;
  const bool verticalFirst = v[0].x == v[1].x && v[1].y == v[2].y &&
                             v[2].x == v[3].x && v[3].y == v[0].y;
  if (!horizontalFirst && !verticalFirst) return std::nullopt;
  return boundingBox(v);
}

std::vector<Rect> decompose(const Polygon& polygon) {
  // A rect loop is its bbox, which is exactly what the slab sweep returns
  // for it (nothing when the loop has zero width or height).
  if (const auto box = rectLoop(polygon.vertices())) {
    if (box->empty()) return {};
    return {*box};
  }
  return decomposeEvenOdd({polygon});
}

std::vector<Rect> decomposeEvenOdd(const std::vector<Polygon>& loops) {
  return slabDecompose(verticalEdges(loops));
}

std::vector<Rect> mergeHorizontal(std::vector<Rect> rects) {
  if (rects.size() < 2) return rects;
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.yl != b.yl) return a.yl < b.yl;
    if (a.yh != b.yh) return a.yh < b.yh;
    return a.xl < b.xl;
  });
  std::vector<Rect> out;
  out.push_back(rects[0]);
  for (std::size_t i = 1; i < rects.size(); ++i) {
    Rect& last = out.back();
    const Rect& r = rects[i];
    if (r.yl == last.yl && r.yh == last.yh && r.xl == last.xh) {
      last.xh = r.xh;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<Rect> mergeVertical(std::vector<Rect> rects) {
  mergeVerticalInPlace(rects);
  return rects;
}

void mergeVerticalInPlace(std::vector<Rect>& rects) {
  if (rects.size() < 2) return;
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.xl != b.xl) return a.xl < b.xl;
    if (a.xh != b.xh) return a.xh < b.xh;
    return a.yl < b.yl;
  });
  // Compact in place: the write cursor never passes the read cursor.
  std::size_t w = 0;
  for (std::size_t i = 1; i < rects.size(); ++i) {
    Rect& last = rects[w];
    const Rect& r = rects[i];
    if (r.xl == last.xl && r.xh == last.xh && r.yl == last.yh) {
      last.yh = r.yh;
    } else {
      rects[++w] = r;
    }
  }
  rects.resize(w + 1);
}

}  // namespace ofl::geom

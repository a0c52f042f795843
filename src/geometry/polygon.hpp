// Rectilinear (Manhattan) polygons.
//
// A Polygon is a simple closed loop of vertices with strictly axis-parallel
// edges, stored WITHOUT repeating the first vertex at the end (GDSII repeats
// it on disk; the reader strips it). Orientation may be CW or CCW; area()
// reports the absolute value.
#pragma once

#include <vector>

#include "geometry/rect.hpp"

namespace ofl::geom {

/// Bounding box of a vertex list (empty Rect for no vertices); what
/// Polygon::bbox returns for the same vertices, without building one.
Rect boundingBox(const std::vector<Point>& vertices);

/// True when every edge of the closed loop, the closing one included, is
/// horizontal or vertical (zero-length edges allowed). The rectangle
/// decomposition is only defined for such loops.
bool isManhattan(const std::vector<Point>& vertices);

class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices)
      : vertices_(std::move(vertices)) {}

  /// Axis-aligned rectangle as a 4-vertex polygon.
  static Polygon fromRect(const Rect& r);

  const std::vector<Point>& vertices() const { return vertices_; }
  bool empty() const { return vertices_.empty(); }
  std::size_t size() const { return vertices_.size(); }

  /// True when the loop is closed, has >= 4 vertices, alternates
  /// horizontal/vertical edges and has no zero-length edges.
  bool isValidRectilinear() const;

  /// Absolute shoelace area. Assumes a simple (non self-intersecting) loop.
  Area area() const;

  /// Bounding box (empty Rect for an empty polygon).
  Rect bbox() const;

 private:
  std::vector<Point> vertices_;
};

}  // namespace ofl::geom

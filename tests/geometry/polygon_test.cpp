#include "geometry/polygon.hpp"

#include <gtest/gtest.h>

namespace ofl::geom {
namespace {

TEST(PolygonTest, FromRect) {
  const Polygon p = Polygon::fromRect({0, 0, 10, 5});
  EXPECT_EQ(p.size(), 4u);
  EXPECT_TRUE(p.isValidRectilinear());
  EXPECT_EQ(p.area(), 50);
  EXPECT_EQ(p.bbox(), Rect(0, 0, 10, 5));
}

TEST(PolygonTest, LShapeAreaAndValidity) {
  // 10x10 square minus 5x5 upper-right notch = 75.
  const Polygon p({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  EXPECT_TRUE(p.isValidRectilinear());
  EXPECT_EQ(p.area(), 75);
  EXPECT_EQ(p.bbox(), Rect(0, 0, 10, 10));
}

TEST(PolygonTest, ClockwiseAreaIsPositive) {
  const Polygon ccw({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const Polygon cw({{0, 0}, {0, 10}, {10, 10}, {10, 0}});
  EXPECT_EQ(ccw.area(), 100);
  EXPECT_EQ(cw.area(), 100);
}

TEST(PolygonTest, RejectsDiagonalEdges) {
  const Polygon p({{0, 0}, {10, 10}, {0, 10}, {0, 5}});
  EXPECT_FALSE(p.isValidRectilinear());
}

TEST(PolygonTest, RejectsCollinearRedundantVertices) {
  const Polygon p({{0, 0}, {5, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 5}});
  EXPECT_FALSE(p.isValidRectilinear());
}

TEST(PolygonTest, RejectsTooFewOrOddVertexCount) {
  EXPECT_FALSE(Polygon({{0, 0}, {10, 0}, {10, 10}}).isValidRectilinear());
  EXPECT_FALSE(Polygon{}.isValidRectilinear());
}

TEST(PolygonTest, EmptyPolygon) {
  const Polygon p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.area(), 0);
  EXPECT_TRUE(p.bbox().empty());
}

// The extent pre-scan takes bboxes from raw vertex lists, including the
// degenerate 0-, 1- and 2-vertex boundaries a GDSII file can carry.
TEST(PolygonTest, BoundingBoxOfVerticesMatchesPolygonBbox) {
  const std::vector<std::vector<Point>> lists{
      {},
      {{-7, 3}},
      {{5, -2}, {-1, 9}},
      {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}}};
  for (const auto& v : lists) {
    EXPECT_EQ(boundingBox(v), Polygon(v).bbox()) << v.size() << " vertices";
  }
  EXPECT_EQ(boundingBox(lists[2]), Rect(-1, -2, 5, 9));
}

}  // namespace
}  // namespace ofl::geom

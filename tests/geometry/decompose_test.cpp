#include "geometry/decompose.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geometry/boolean.hpp"

#include "../test_util.hpp"

namespace ofl::geom {
namespace {

TEST(DecomposeTest, RectDecomposesToItself) {
  const auto rects = decompose(Polygon::fromRect({2, 3, 9, 8}));
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect(2, 3, 9, 8));
}

TEST(DecomposeTest, LShape) {
  const Polygon p({{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}});
  const auto rects = decompose(p);
  Area total = 0;
  for (const Rect& r : rects) total += r.area();
  EXPECT_EQ(total, p.area());
  EXPECT_TRUE(testutil::pairwiseDisjoint(rects));
  EXPECT_LE(rects.size(), 2u);  // L-shape needs exactly two rects
}

TEST(DecomposeTest, UShape) {
  // U: 12 wide, 10 tall, 4-wide slot from the top.
  const Polygon p({{0, 0}, {12, 0}, {12, 10}, {8, 10}, {8, 4}, {4, 4},
                   {4, 10}, {0, 10}});
  const auto rects = decompose(p);
  Area total = 0;
  for (const Rect& r : rects) total += r.area();
  EXPECT_EQ(total, p.area());
  EXPECT_EQ(total, 12 * 10 - 4 * 6);
  EXPECT_TRUE(testutil::pairwiseDisjoint(rects));
}

TEST(DecomposeTest, DonutViaEvenOdd) {
  // Outer 10x10, hole 4x4 in the middle, expressed as two loops.
  const std::vector<Polygon> loops{Polygon::fromRect({0, 0, 10, 10}),
                                   Polygon::fromRect({3, 3, 7, 7})};
  const auto rects = decomposeEvenOdd(loops);
  Area total = 0;
  for (const Rect& r : rects) {
    total += r.area();
    EXPECT_EQ(r.overlapArea({3, 3, 7, 7}), 0) << "rect covers the hole";
  }
  EXPECT_EQ(total, 100 - 16);
  EXPECT_TRUE(testutil::pairwiseDisjoint(rects));
}

TEST(DecomposeTest, AreaPreservedOnRandomStaircases) {
  // Random rectilinear staircase polygons: x-monotone, built from columns
  // of random heights — area is trivially the sum of column areas.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int columns = static_cast<int>(rng.uniformInt(1, 8));
    std::vector<Point> upper;
    Area expected = 0;
    std::vector<Coord> heights;
    for (int c = 0; c < columns; ++c) {
      Coord h = rng.uniformInt(1, 20);
      if (!heights.empty() && h == heights.back()) ++h;  // avoid collinear
      heights.push_back(h);
      expected += 10 * h;
    }
    // Build the loop: along the bottom, then back across the top.
    std::vector<Point> loop;
    loop.push_back({0, 0});
    loop.push_back({static_cast<Coord>(columns) * 10, 0});
    for (int c = columns - 1; c >= 0; --c) {
      const Coord xr = static_cast<Coord>(c + 1) * 10;
      const Coord xl = static_cast<Coord>(c) * 10;
      loop.push_back({xr, heights[static_cast<std::size_t>(c)]});
      loop.push_back({xl, heights[static_cast<std::size_t>(c)]});
    }
    // Remove the final duplicate corner at (0, h0) -> (0,0) handled by close.
    const Polygon poly(loop);
    const auto rects = decompose(poly);
    Area total = 0;
    for (const Rect& r : rects) total += r.area();
    EXPECT_EQ(total, expected) << "trial " << trial;
    EXPECT_TRUE(testutil::pairwiseDisjoint(rects)) << "trial " << trial;
  }
}

// Property: the rect fast path in decompose() returns exactly what the
// slab sweep returns for the same loop. Rect loops cover every starting
// corner (so both horizontal-first and vertical-first edge orders) and
// both windings, plus zero-width and zero-height loops and negative
// coordinates. The non-rect loops carry diagonal edges.
TEST(DecomposeTest, RectFastPathMatchesSlabSweep) {
  Rng rng(1414);
  const auto check = [](const std::vector<Point>& loop, int trial) {
    const Polygon p(loop);
    EXPECT_EQ(decompose(p), decomposeEvenOdd({p})) << "trial " << trial;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const Coord x0 = rng.uniformInt(-1000, 1000);
    const Coord y0 = rng.uniformInt(-1000, 1000);
    // Width/height 0 in about one trial in eight each.
    const auto side = [&rng] {
      return rng.uniformInt(0, 7) == 0 ? 0 : rng.uniformInt(-300, 300);
    };
    const Coord x1 = x0 + side();
    const Coord y1 = y0 + side();
    std::vector<Point> rect{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
    if (rng.uniformInt(0, 1) == 1) std::reverse(rect.begin(), rect.end());
    std::rotate(rect.begin(), rect.begin() + rng.uniformInt(0, 3), rect.end());
    check(rect, trial);
    if (x0 != x1 && y0 != y1) {
      EXPECT_EQ(decompose(Polygon(rect)).size(), 1u) << "trial " << trial;
    } else {
      EXPECT_TRUE(decompose(Polygon(rect)).empty()) << "trial " << trial;
    }

    // Bowtie: two vertical edges over the same span joined by diagonals.
    std::vector<Point> bowtie{{x0, y0}, {x0, y1}, {x1, y0}, {x1, y1}};
    std::rotate(bowtie.begin(), bowtie.begin() + rng.uniformInt(0, 3),
                bowtie.end());
    check(bowtie, trial);
    // Trapezoid: two horizontal edges joined by diagonals.
    const Coord shift = rng.uniformInt(1, 50);
    std::vector<Point> trapezoid{
        {x0, y0}, {x1, y0}, {x1 + shift, y1}, {x0 - shift, y1}};
    if (rng.uniformInt(0, 1) == 1) {
      std::reverse(trapezoid.begin(), trapezoid.end());
    }
    check(trapezoid, trial);
#ifdef NDEBUG
    // Near misses: three of the four alternating-edge conditions hold and
    // one edge is diagonal. Such a loop has a single vertical edge, which
    // the sweep's even-crossing assert rejects in debug builds.
    if (x0 != x1 && y0 != y1) {
      std::vector<Point> nearMiss{
          {x0, y0}, {x1, y0}, {x1, y1}, {x0 + shift, y1}};
      std::rotate(nearMiss.begin(),
                  nearMiss.begin() + rng.uniformInt(0, 3), nearMiss.end());
      check(nearMiss, trial);
    }
#endif
  }
}

TEST(MergeTest, HorizontalMergeJoinsAbuttingSameRow) {
  std::vector<Rect> rects{{0, 0, 5, 10}, {5, 0, 9, 10}, {9, 0, 12, 10}};
  const auto merged = mergeHorizontal(rects);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], Rect(0, 0, 12, 10));
}

TEST(MergeTest, HorizontalMergeKeepsDifferentRows) {
  std::vector<Rect> rects{{0, 0, 5, 10}, {5, 0, 9, 11}};
  EXPECT_EQ(mergeHorizontal(rects).size(), 2u);
}

TEST(MergeTest, VerticalMergeJoinsAbuttingSameColumn) {
  std::vector<Rect> rects{{0, 0, 10, 4}, {0, 4, 10, 9}};
  const auto merged = mergeVertical(rects);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], Rect(0, 0, 10, 9));
}

TEST(MergeTest, InPlaceVariantMatchesAllocating) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Rect> input;
    for (int k = 0; k < 12; ++k) {
      input.push_back(testutil::randomRect(rng, 40, 15));
    }
    const auto disjoint = booleanOp(input, {}, BoolOp::kUnion);
    std::vector<Rect> inPlace = disjoint;
    mergeVerticalInPlace(inPlace);
    EXPECT_EQ(inPlace, mergeVertical(disjoint)) << "trial " << trial;
  }
}

TEST(MergeTest, MergePreservesArea) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    // Build a disjoint set by decomposing a union of random rects.
    std::vector<Rect> input;
    for (int k = 0; k < 12; ++k) {
      input.push_back(testutil::randomRect(rng, 40, 15));
    }
    const auto disjoint = booleanOp(input, {}, BoolOp::kUnion);
    const Area base = unionArea(disjoint);
    for (auto merged : {mergeHorizontal(disjoint), mergeVertical(disjoint)}) {
      Area total = 0;
      for (const Rect& r : merged) total += r.area();
      EXPECT_EQ(total, base);
      EXPECT_TRUE(testutil::pairwiseDisjoint(merged));
      EXPECT_LE(merged.size(), disjoint.size());
    }
  }
}

}  // namespace
}  // namespace ofl::geom

#include "geometry/region.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.hpp"

namespace ofl::geom {
namespace {

TEST(RegionTest, NormalizesOverlappingInput) {
  const std::vector<Rect> rects{{0, 0, 10, 10}, {5, 0, 15, 10}};
  const Region region(rects);
  EXPECT_EQ(region.area(), 150);
  EXPECT_TRUE(testutil::pairwiseDisjoint(region.rects()));
}

TEST(RegionTest, SetOperations) {
  const Region a(Rect{0, 0, 10, 10});
  const Region b(Rect{5, 5, 15, 15});
  EXPECT_EQ(a.unite(b).area(), 175);
  EXPECT_EQ(a.intersect(b).area(), 25);
  EXPECT_EQ(a.subtract(b).area(), 75);
  EXPECT_EQ(a.overlapArea(b), 25);
}

TEST(RegionTest, EmptyRegion) {
  const Region empty;
  const Region a(Rect{0, 0, 4, 4});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.area(), 0);
  EXPECT_EQ(a.intersect(empty).area(), 0);
  EXPECT_EQ(a.unite(empty).area(), 16);
  EXPECT_EQ(a.subtract(empty).area(), 16);
  EXPECT_TRUE(Region(Rect{3, 3, 3, 9}).empty());  // degenerate rect
}

TEST(RegionTest, ClippedToWindow) {
  const Region a(std::vector<Rect>{{0, 0, 10, 10}, {20, 20, 30, 30}});
  const Region c = a.clipped({5, 5, 25, 25});
  EXPECT_EQ(c.area(), 25 + 25);
  for (const Rect& r : c.rects()) {
    EXPECT_TRUE(Rect(5, 5, 25, 25).contains(r));
  }
}

TEST(RegionTest, BboxCoversAll) {
  const Region a(std::vector<Rect>{{2, 3, 4, 5}, {10, 1, 12, 9}});
  EXPECT_EQ(a.bbox(), Rect(2, 1, 12, 9));
}

TEST(RegionTest, ShrunkOfRect) {
  const Region a(Rect{0, 0, 20, 20});
  const Region s = a.shrunk(3);
  EXPECT_EQ(s.area(), 14 * 14);
  EXPECT_EQ(s.bbox(), Rect(3, 3, 17, 17));
}

TEST(RegionTest, ShrunkEliminatesSlivers) {
  // A 20x20 square with a 4-wide corridor attached: eroding by 3 must
  // remove the corridor entirely (4 < 2*3 + 1).
  const Region a(std::vector<Rect>{{0, 0, 20, 20}, {20, 8, 40, 12}});
  const Region s = a.shrunk(3);
  EXPECT_EQ(s.area(), 14 * 14);
}

TEST(RegionTest, ShrunkZeroIsIdentity) {
  const Region a(std::vector<Rect>{{0, 0, 10, 10}, {20, 0, 25, 5}});
  EXPECT_EQ(a.shrunk(0), a);
}

TEST(RegionTest, ShrunkPointStaysInsideOriginal) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Rect> rects;
    for (int k = 0; k < 8; ++k) rects.push_back(testutil::randomRect(rng, 60, 25));
    const Region region(rects);
    const Region eroded = region.shrunk(2);
    // Erosion is anti-extensive and every eroded point keeps a 2-margin:
    // growing the eroded rects back by 2 must stay inside the original.
    for (Rect r : eroded.rects()) {
      r = r.expanded(2);
      EXPECT_EQ(Region(r).subtract(region).area(), 0) << "trial " << trial;
    }
  }
}

TEST(RegionTest, ErodedEmptyMatchesShrunkOnRandomRegions) {
  Rng rng(2015);
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<Rect> rects;
    const auto n = rng.uniformInt(1, 8);
    for (int k = 0; k < n; ++k) {
      rects.push_back(testutil::randomRect(rng, 40, 14));
    }
    const Region region(rects);
    for (const Coord d : {0, 1, 2, 5}) {
      EXPECT_EQ(region.erodedEmpty(d), region.shrunk(d).empty())
          << "trial " << trial << " d " << d;
    }
  }
}

TEST(RegionTest, ErodedEmptyMatchesShrunkOnHandBuiltShapes) {
  // Canonical rects are maximal y-runs merged along x, so each shape below
  // names its decomposition; with d = 2 a fill needs a 5x5 square.
  const struct {
    const char* name;
    std::vector<Rect> rects;
    bool erodedEmpty;
  } cases[] = {
      {"empty", {}, true},
      {"exact 5x5 square", {{0, 0, 5, 5}}, false},
      {"4-high corridor (bbox side <= 2d)", {{0, 0, 40, 4}}, true},
      {"5-high corridor", {{0, 0, 40, 5}}, false},
      {"4-wide column", {{0, 0, 4, 40}}, true},
      // Falls back: every canonical rect is 2 wide, but the staircase's
      // union holds a 5x5 square at its foot.
      {"staircase of 2-wide columns",
       {{0, 0, 2, 10}, {2, 0, 4, 12}, {4, 0, 6, 14}, {6, 0, 8, 16}},
       false},
      // Falls back: two 3-wide columns of different heights abut into a
      // 6-wide block.
      {"notched block", {{0, 0, 3, 10}, {3, 0, 6, 11}}, false},
      // Falls back: an L of 3-wide arms has a 20x20 bbox but no 5x5
      // square anywhere.
      {"thin L", {{0, 0, 20, 3}, {0, 3, 3, 20}}, true},
      // Falls back: a 3-wide ring with a wide bbox and no 5x5 square.
      {"thin ring",
       {{0, 0, 20, 3}, {0, 17, 20, 20}, {0, 3, 3, 17}, {17, 3, 20, 17}},
       true},
  };
  for (const auto& c : cases) {
    const Region region(c.rects);
    EXPECT_EQ(region.shrunk(2).empty(), c.erodedEmpty) << c.name;
    EXPECT_EQ(region.erodedEmpty(2), c.erodedEmpty) << c.name;
    for (const Coord d : {0, 1, 5}) {
      EXPECT_EQ(region.erodedEmpty(d), region.shrunk(d).empty())
          << c.name << " d " << d;
    }
  }
}

TEST(RegionTest, SpanErodedEmptyIgnoresRectOrder) {
  // Random regions plus the hand-built shapes only the erosion fallback
  // decides (no rect with both sides > 2d, no bbox side <= 2d at d = 2).
  std::vector<std::vector<Rect>> shapes = {
      {{0, 0, 2, 10}, {2, 0, 4, 12}, {4, 0, 6, 14}, {6, 0, 8, 16}},
      {{0, 0, 3, 10}, {3, 0, 6, 11}},
      {{0, 0, 20, 3}, {0, 3, 3, 20}},
      {{0, 0, 20, 3}, {0, 17, 20, 20}, {0, 3, 3, 17}, {17, 3, 20, 17}},
  };
  Rng rng(1931);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Rect> rects;
    const auto n = rng.uniformInt(1, 8);
    for (int k = 0; k < n; ++k) {
      rects.push_back(testutil::randomRect(rng, 40, 14));
    }
    shapes.push_back(std::move(rects));
  }
  int fallbacks = 0;
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    const Region region(shapes[c]);
    std::vector<Rect> shuffled = region.rects();
    for (const Coord d : {0, 1, 2, 5}) {
      const bool expected = region.shrunk(d).empty();
      ASSERT_EQ(region.erodedEmpty(d), expected) << "shape " << c;
      const Rect box = region.bbox();
      fallbacks += std::none_of(shuffled.begin(), shuffled.end(),
                                [&](const Rect& r) {
                                  return r.width() > 2 * d &&
                                         r.height() > 2 * d;
                                }) &&
                   box.width() > 2 * d && box.height() > 2 * d;
      for (int round = 0; round < 3; ++round) {
        std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
        EXPECT_EQ(erodedEmpty(shuffled, d), expected)
            << "shape " << c << " d " << d << " round " << round;
      }
    }
  }
  EXPECT_GE(fallbacks, 4);
}

}  // namespace
}  // namespace ofl::geom

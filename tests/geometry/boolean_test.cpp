#include "geometry/boolean.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ofl::geom {
namespace {

TEST(BooleanTest, UnionOfDisjoint) {
  const std::vector<Rect> a{{0, 0, 5, 5}};
  const std::vector<Rect> b{{10, 10, 15, 15}};
  EXPECT_EQ(booleanArea(a, b, BoolOp::kUnion), 50);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kIntersect), 0);
}

TEST(BooleanTest, UnionMergesOverlap) {
  const std::vector<Rect> a{{0, 0, 10, 10}};
  const std::vector<Rect> b{{5, 5, 15, 15}};
  EXPECT_EQ(booleanArea(a, b, BoolOp::kUnion), 175);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kIntersect), 25);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kSubtract), 75);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kXor), 150);
}

TEST(BooleanTest, SelfOverlappingInputNormalized) {
  const std::vector<Rect> a{{0, 0, 10, 10}, {0, 0, 10, 10}, {5, 0, 15, 10}};
  EXPECT_EQ(unionArea(a), 150);
  const auto rects = booleanOp(a, {}, BoolOp::kUnion);
  EXPECT_TRUE(testutil::pairwiseDisjoint(rects));
  Area sum = 0;
  for (const Rect& r : rects) sum += r.area();
  EXPECT_EQ(sum, 150);
}

TEST(BooleanTest, SubtractPunchesHole) {
  const std::vector<Rect> a{{0, 0, 10, 10}};
  const std::vector<Rect> b{{3, 3, 7, 7}};
  const auto rects = booleanOp(a, b, BoolOp::kSubtract);
  Area sum = 0;
  for (const Rect& r : rects) {
    sum += r.area();
    EXPECT_EQ(r.overlapArea({3, 3, 7, 7}), 0);
  }
  EXPECT_EQ(sum, 84);
  EXPECT_TRUE(testutil::pairwiseDisjoint(rects));
}

TEST(BooleanTest, AbuttingRectsUnionWithoutDoubleCount) {
  const std::vector<Rect> a{{0, 0, 5, 10}};
  const std::vector<Rect> b{{5, 0, 10, 10}};
  EXPECT_EQ(booleanArea(a, b, BoolOp::kUnion), 100);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kIntersect), 0);
  EXPECT_EQ(booleanArea(a, b, BoolOp::kXor), 100);
}

TEST(BooleanTest, EmptyOperands) {
  const std::vector<Rect> a{{0, 0, 5, 5}};
  EXPECT_EQ(booleanArea(a, {}, BoolOp::kUnion), 25);
  EXPECT_EQ(booleanArea({}, a, BoolOp::kUnion), 25);
  EXPECT_EQ(booleanArea({}, {}, BoolOp::kUnion), 0);
  EXPECT_EQ(booleanArea(a, {}, BoolOp::kIntersect), 0);
  EXPECT_EQ(booleanArea({}, a, BoolOp::kSubtract), 0);
  EXPECT_TRUE(booleanOp({}, {}, BoolOp::kXor).empty());
}

TEST(BooleanTest, DegenerateInputRectsIgnored) {
  const std::vector<Rect> a{{0, 0, 0, 10}, {3, 3, 3, 3}};
  const std::vector<Rect> b{{0, 0, 4, 4}};
  EXPECT_EQ(booleanArea(a, b, BoolOp::kUnion), 16);
}

// Property test: every op agrees with brute-force rasterization on random
// inputs. booleanOp must reproduce the raster's canonical decomposition
// rect for rect, and booleanOpInto the same rects in sweep order.
struct BooleanCase {
  char opChar;
  BoolOp op;
};

class BooleanPropertyTest : public ::testing::TestWithParam<BooleanCase> {};

TEST_P(BooleanPropertyTest, MatchesRasterOracle) {
  const auto [opChar, op] = GetParam();
  Rng rng(0xB001 + static_cast<unsigned>(opChar));
  constexpr int kExtent = 48;
  std::vector<Rect> into;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Rect> a;
    std::vector<Rect> b;
    const int na = static_cast<int>(rng.uniformInt(0, 12));
    const int nb = static_cast<int>(rng.uniformInt(0, 12));
    for (int k = 0; k < na; ++k) a.push_back(testutil::randomRect(rng, kExtent, 20));
    for (int k = 0; k < nb; ++k) b.push_back(testutil::randomRect(rng, kExtent, 20));

    testutil::Raster ra(kExtent);
    testutil::Raster rb(kExtent);
    ra.paint(a);
    rb.paint(b);
    const long long expected = testutil::Raster::opArea(ra, rb, opChar);

    EXPECT_EQ(booleanArea(a, b, op), expected) << "trial " << trial;

    const auto rects = booleanOp(a, b, op);
    EXPECT_EQ(rects, testutil::Raster::opRects(ra, rb, opChar))
        << "trial " << trial;
    EXPECT_TRUE(testutil::pairwiseDisjoint(rects)) << "trial " << trial;

    booleanOpInto(a, b, op, into);  // reused across trials on purpose
    std::sort(into.begin(), into.end(), RectYXLess{});
    EXPECT_EQ(into, rects) << "trial " << trial;
  }
}

// unionArea against the raster oracle on rect sets of every shape its two
// paths see: pairwise-disjoint sets (summed directly), overlapping sets
// (handed to the sweep), sets of edge- and corner-touching tiles (disjoint,
// however many edges they share), sets with empty and degenerate rects
// mixed in, and stacks of full-width wires that exhaust the disjointness
// scan's pair-test budget before any overlap shows.
enum class UnionKind {
  kDisjoint,
  kOverlapping,
  kTouching,
  kDegenerate,
  kStacked
};

constexpr int kUnionExtent = 64;

// A uniform position in [0, n].
std::ptrdiff_t randomPos(Rng& rng, std::size_t n) {
  return static_cast<std::ptrdiff_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(n)));
}

// Random rects, each kept only if it overlaps none kept before.
std::vector<Rect> disjointRects(Rng& rng, int tries) {
  std::vector<Rect> out;
  for (int k = 0; k < tries; ++k) {
    const Rect r = testutil::randomRect(rng, kUnionExtent, 16);
    if (std::none_of(out.begin(), out.end(),
                     [&](const Rect& o) { return o.overlaps(r); })) {
      out.push_back(r);
    }
  }
  return out;
}

// The cells of a random grid cut of the extent, some dropped: every kept
// pair shares an edge, a corner or nothing.
std::vector<Rect> touchingTiles(Rng& rng) {
  const auto cuts = [&] {
    std::vector<Coord> c{0, kUnionExtent};
    const int n = static_cast<int>(rng.uniformInt(1, 7));
    for (int k = 0; k < n; ++k) {
      c.push_back(rng.uniformInt(1, kUnionExtent - 1));
    }
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    return c;
  };
  const std::vector<Coord> xs = cuts();
  const std::vector<Coord> ys = cuts();
  std::vector<Rect> out;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    for (std::size_t j = 0; j + 1 < ys.size(); ++j) {
      if (rng.bernoulli(0.8)) {
        out.push_back({xs[i], ys[j], xs[i + 1], ys[j + 1]});
      }
    }
  }
  return out;
}

std::vector<Rect> unionCase(Rng& rng, UnionKind kind) {
  switch (kind) {
    case UnionKind::kDisjoint:
      return disjointRects(rng, static_cast<int>(rng.uniformInt(0, 40)));
    case UnionKind::kOverlapping: {
      std::vector<Rect> rects =
          disjointRects(rng, static_cast<int>(rng.uniformInt(1, 40)));
      // One more rect over a random kept one, so at least one pair overlaps.
      const Rect base = rects[static_cast<std::size_t>(
          randomPos(rng, rects.size() - 1))];
      const Rect over{base.xl, base.yl,
                      std::min<Coord>(base.xh + 3, kUnionExtent),
                      std::min<Coord>(base.yh + 3, kUnionExtent)};
      rects.insert(rects.begin() + randomPos(rng, rects.size()), over);
      return rects;
    }
    case UnionKind::kTouching: return touchingTiles(rng);
    case UnionKind::kDegenerate: {
      std::vector<Rect> rects = rng.bernoulli(0.5)
                                    ? touchingTiles(rng)
                                    : disjointRects(rng, 30);
      // Zero-width, zero-height, single-point and inverted rects, some
      // inside kept rects: empty, so they cover nothing and overlap nothing.
      const int n = static_cast<int>(rng.uniformInt(1, 10));
      for (int k = 0; k < n; ++k) {
        const Coord x = rng.uniformInt(0, kUnionExtent);
        const Coord y = rng.uniformInt(0, kUnionExtent);
        const Coord d = rng.uniformInt(1, 20);
        const Rect empties[] = {{x, y, x, y + d},
                                {x, y, x + d, y},
                                {x, y, x, y},
                                {x + d, y, x, y + d}};
        rects.insert(rects.begin() + randomPos(rng, rects.size()),
                     empties[rng.uniformInt(0, 3)]);
      }
      return rects;
    }
    case UnionKind::kStacked: {
      // Full-width wires one unit tall, touching or one unit apart, in
      // random order: every wire stays open across the whole scan, so the
      // scan's pair tests grow quadratically and exhaust its budget.
      std::vector<Rect> rects;
      for (Coord y = 0; y < kUnionExtent; y += rng.uniformInt(1, 2)) {
        rects.push_back({0, y, kUnionExtent, y + 1});
      }
      for (std::size_t i = rects.size(); i > 1; --i) {
        std::swap(rects[i - 1],
                  rects[static_cast<std::size_t>(randomPos(rng, i - 1))]);
      }
      if (rng.bernoulli(0.5)) rects.push_back({5, 5, 9, 9});  // late overlap
      return rects;
    }
  }
  return {};
}

class UnionAreaPropertyTest : public ::testing::TestWithParam<UnionKind> {};

TEST_P(UnionAreaPropertyTest, MatchesRasterOracle) {
  Rng rng(0x0A1EA + static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Rect> rects = unionCase(rng, GetParam());
    testutil::Raster raster(kUnionExtent);
    raster.paint(rects);
    EXPECT_EQ(unionArea(rects), raster.area()) << "trial " << trial;
    if (GetParam() == UnionKind::kTouching) {
      // Disjoint tiles: the union is the plain sum, shared edges and all.
      Area sum = 0;
      for (const Rect& r : rects) sum += r.area();
      EXPECT_EQ(unionArea(rects), sum) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, UnionAreaPropertyTest,
    ::testing::Values(UnionKind::kDisjoint, UnionKind::kOverlapping,
                      UnionKind::kTouching, UnionKind::kDegenerate,
                      UnionKind::kStacked),
    [](const auto& info) {
      switch (info.param) {
        case UnionKind::kDisjoint: return std::string("Disjoint");
        case UnionKind::kOverlapping: return std::string("Overlapping");
        case UnionKind::kTouching: return std::string("Touching");
        case UnionKind::kDegenerate: return std::string("Degenerate");
        case UnionKind::kStacked: return std::string("Stacked");
      }
      return std::string();
    });

TEST(OverlapSumTest, MatchesPerShapeAccumulation) {
  Rng rng(911);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect query = testutil::randomRect(rng, 200, 60);
    std::vector<Rect> shapes;
    const int n = static_cast<int>(rng.uniformInt(0, 15));
    for (int k = 0; k < n; ++k) {
      shapes.push_back(testutil::randomRect(rng, 200, 40));
    }
    Area expected = 0;
    for (const Rect& s : shapes) expected += query.overlapArea(s);
    EXPECT_EQ(overlapAreaSum(query, shapes), expected) << "trial " << trial;
  }
}

TEST(OverlapSumTest, CountsSelfOverlappingShapesPairwise) {
  // The Eqn. 8 neighbor set legitimately self-overlaps (layers l-1 and
  // l+1 both project onto the plane): the pairwise sum counts every
  // covering shape once, unlike coverage-based intersectionArea.
  const Rect query{0, 0, 10, 10};
  const std::vector<Rect> shapes{{2, 2, 8, 8}, {2, 2, 8, 8}};
  EXPECT_EQ(overlapAreaSum(query, shapes), 72);
  const std::vector<Rect> q{query};
  EXPECT_EQ(intersectionArea(q, shapes), 36);
}

TEST(OverlapSumTest, DisjointVariantAgreesOnDisjointInput) {
  // A disjoint grid of shapes: both kernels and the coverage-based sweep
  // agree exactly.
  const Rect query{3, 3, 47, 47};
  std::vector<Rect> shapes;
  for (Coord y = 0; y < 50; y += 10) {
    for (Coord x = 0; x < 50; x += 10) {
      shapes.push_back({x, y, x + 8, y + 8});
    }
  }
  ASSERT_TRUE(testutil::pairwiseDisjoint(shapes));
  const Area sum = overlapAreaSum(query, shapes);
  EXPECT_EQ(overlapAreaDisjoint(query, shapes), sum);
  const std::vector<Rect> q{query};
  EXPECT_EQ(intersectionArea(q, shapes), sum);
}

TEST(OverlapSumTest, DisjointVariantAssertsOnOverlappingInput) {
  // The documented precondition is debug-asserted: feeding a
  // self-overlapping set to the disjoint kernel is the bug class the
  // assert exists to catch.
  const Rect query{0, 0, 10, 10};
  const std::vector<Rect> shapes{{1, 1, 6, 6}, {4, 4, 9, 9}};
  EXPECT_DEBUG_DEATH(overlapAreaDisjoint(query, shapes), "disjoint");
}

INSTANTIATE_TEST_SUITE_P(AllOps, BooleanPropertyTest,
                         ::testing::Values(BooleanCase{'|', BoolOp::kUnion},
                                           BooleanCase{'&', BoolOp::kIntersect},
                                           BooleanCase{'-', BoolOp::kSubtract},
                                           BooleanCase{'^', BoolOp::kXor}),
                         [](const auto& info) {
                           switch (info.param.op) {
                             case BoolOp::kUnion: return "Union";
                             case BoolOp::kIntersect: return "Intersect";
                             case BoolOp::kSubtract: return "Subtract";
                             case BoolOp::kXor: return "Xor";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ofl::geom

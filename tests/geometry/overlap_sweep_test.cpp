// OverlapSweep against a brute-force pair scan: every pair with
// positive-area overlap is reported exactly once, and no other pair.
#include "geometry/overlap_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace ofl::geom {
namespace {

using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

bool pairs(const Rect& a, const Rect& b) {
  return !a.empty() && !b.empty() && a.overlapArea(b) > 0;
}

// Rects on a 10-DBU lattice, so shared edges, corner touches and exact
// duplicates are common; some have zero width or height, or are inverted.
std::vector<Rect> latticeRects(Rng& rng, int count) {
  std::vector<Rect> out;
  for (int k = 0; k < count; ++k) {
    if (!out.empty() && rng.bernoulli(0.1)) {
      out.push_back(out[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(out.size()) - 1))]);
      continue;
    }
    const Coord x = 10 * rng.uniformInt(0, 20);
    const Coord y = 10 * rng.uniformInt(0, 20);
    Coord w = 10 * rng.uniformInt(1, 6);
    Coord h = 10 * rng.uniformInt(1, 6);
    if (rng.bernoulli(0.05)) w = 0;
    if (rng.bernoulli(0.05)) h = 0;
    if (rng.bernoulli(0.03)) w = -10;
    out.push_back({x, y, x + w, y + h});
  }
  return out;
}

TEST(OverlapSweepTest, TwoSetsMatchBruteScan) {
  Rng rng(4242);
  OverlapSweep sweep;
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = latticeRects(rng, static_cast<int>(rng.uniformInt(0, 40)));
    const auto b = latticeRects(rng, static_cast<int>(rng.uniformInt(0, 40)));
    Pairs got;
    sweep.visit(a, b, [&](std::uint32_t i, std::uint32_t j) {
      got.push_back({i, j});
    });
    Pairs want;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
      for (std::uint32_t j = 0; j < b.size(); ++j) {
        if (pairs(a[i], b[j])) want.push_back({i, j});
      }
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(OverlapSweepTest, SelfPairsMatchBruteScan) {
  Rng rng(777);
  OverlapSweep sweep;
  for (int trial = 0; trial < 300; ++trial) {
    const auto rects =
        latticeRects(rng, static_cast<int>(rng.uniformInt(0, 50)));
    Pairs got;
    sweep.visit(rects, [&](std::uint32_t i, std::uint32_t j) {
      EXPECT_LT(i, j);
      got.push_back({i, j});
    });
    Pairs want;
    for (std::uint32_t i = 0; i < rects.size(); ++i) {
      for (std::uint32_t j = i + 1; j < rects.size(); ++j) {
        if (pairs(rects[i], rects[j])) want.push_back({i, j});
      }
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(OverlapSweepTest, EdgesAndCornersDoNotPair) {
  const std::vector<Rect> a = {{0, 0, 10, 10}};
  const std::vector<Rect> b = {{10, 0, 20, 10},   // shared edge
                               {10, 10, 20, 20},  // corner touch
                               {0, 10, 10, 20},   // shared edge above
                               {5, 5, 5, 8},      // zero width inside
                               {2, 2, 8, 2},      // zero height inside
                               {9, 9, 11, 11}};   // one-DBU overlap
  Pairs got;
  OverlapSweep sweep;
  sweep.visit(a, b, [&](std::uint32_t i, std::uint32_t j) {
    got.push_back({i, j});
  });
  EXPECT_EQ(got, (Pairs{{0, 5}}));
}

TEST(OverlapSweepTest, EmptySideReportsNothing) {
  const std::vector<Rect> some = {{0, 0, 10, 10}, {5, 5, 15, 15}};
  const std::vector<Rect> none;
  int calls = 0;
  OverlapSweep sweep;
  const auto count = [&](std::uint32_t, std::uint32_t) { ++calls; };
  sweep.visit(some, none, count);
  sweep.visit(none, some, count);
  sweep.visit(none, count);
  EXPECT_EQ(calls, 0);
  // Reuse after empty calls still finds the one self pair.
  sweep.visit(some, count);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace ofl::geom

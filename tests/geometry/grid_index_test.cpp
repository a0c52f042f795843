#include "geometry/grid_index.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ofl::geom {
namespace {

TEST(GridIndexTest, FindsInsertedRect) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(7, {15, 15, 25, 25});
  const auto hits = index.query({20, 20, 22, 22});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
}

TEST(GridIndexTest, MissesFarQuery) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(1, {0, 0, 5, 5});
  EXPECT_TRUE(index.query({80, 80, 95, 95}).empty());
}

TEST(GridIndexTest, DeduplicatesAcrossCells) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(3, {5, 5, 95, 95});  // spans many cells
  const auto hits = index.query({0, 0, 100, 100});
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndexTest, VisitEachIdOnce) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(1, {0, 0, 50, 50});
  index.insert(2, {40, 40, 90, 90});
  int count = 0;
  index.visit({0, 0, 100, 100}, [&count](std::uint32_t) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(GridIndexTest, QueryIsSupersetOfTrueOverlaps) {
  Rng rng(4242);
  const Rect extent{0, 0, 200, 200};
  GridIndex index(extent, 16);
  std::vector<Rect> rects;
  for (std::uint32_t id = 0; id < 60; ++id) {
    rects.push_back(testutil::randomRect(rng, 200, 30));
    index.insert(id, rects.back());
  }
  for (int trial = 0; trial < 40; ++trial) {
    const Rect q = testutil::randomRect(rng, 200, 50);
    const auto hits = index.query(q);
    for (std::uint32_t id = 0; id < rects.size(); ++id) {
      if (rects[id].overlaps(q)) {
        EXPECT_TRUE(std::find(hits.begin(), hits.end(), id) != hits.end())
            << "missed id " << id << " trial " << trial;
      }
    }
  }
}

TEST(GridIndexTest, ResetDropsStaleEntriesAndRetargets) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(1, {5, 5, 15, 15});
  index.reset({0, 0, 50, 50}, 5);
  EXPECT_TRUE(index.query({0, 0, 50, 50}).empty());
  index.insert(2, {10, 10, 20, 20});
  const auto hits = index.query({12, 12, 14, 14});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);
}

TEST(GridIndexTest, DefaultConstructedUsableAfterReset) {
  GridIndex index;
  index.reset({0, 0, 80, 80}, 8);
  index.insert(5, {40, 40, 48, 48});
  const auto hits = index.query({42, 42, 44, 44});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 5u);
}

TEST(GridIndexTest, RepeatedResetMatchesFreshIndex) {
  // The per-window scratch pattern: one index reset across many windows
  // must answer exactly like a freshly built one every time.
  Rng rng(77);
  GridIndex reused;
  for (int window = 0; window < 10; ++window) {
    const Coord extent = rng.uniformInt(60, 300);
    const Coord pitch = rng.uniformInt(4, 40);
    reused.reset({0, 0, extent, extent}, pitch);
    GridIndex fresh({0, 0, extent, extent}, pitch);
    std::vector<Rect> rects;
    for (std::uint32_t id = 0; id < 25; ++id) {
      rects.push_back(testutil::randomRect(rng, extent, 50));
      reused.insert(id, rects.back());
      fresh.insert(id, rects.back());
    }
    for (int trial = 0; trial < 10; ++trial) {
      const Rect q =
          testutil::randomRect(rng, extent, std::min<Coord>(80, extent));
      auto a = reused.query(q);
      auto b = fresh.query(q);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "window " << window << " trial " << trial;
    }
  }
}

TEST(GridIndexTest, OutOfExtentRectClampedButDiscoverable) {
  GridIndex index({0, 0, 100, 100}, 10);
  index.insert(9, {-20, -20, -5, -5});  // fully outside; clamps to border
  const auto hits = index.query({0, 0, 15, 15});
  EXPECT_EQ(hits.size(), 1u);
}

}  // namespace
}  // namespace ofl::geom

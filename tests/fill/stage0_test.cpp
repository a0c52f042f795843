// Engine stage 0 (fill::detail::prepareWindows) against whole-layer
// references: the (layer x window-row) tasks must reproduce, in content and
// order, what WindowGrid::bucketClipped, the window subtract,
// DensityMap::computeFromShapes and density::computeBounds give for the
// whole layer, at any thread count. Also part of the TSan smoke workload
// (tsan_smoke_parallel_fill): workers write disjoint row slots of shared
// [layer][window] tables on a grid with more rows than the tiny suite.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "fill/fill_engine.hpp"
#include "geometry/boolean.hpp"
#include "layout/fill_region.hpp"

namespace ofl::fill {
namespace {

using geom::Coord;
using geom::Rect;
using Buckets = std::vector<std::vector<Rect>>;

constexpr Coord kWindow = 100;

// A die that is not a multiple of the window size (11 x 14 windows, the
// top row and right column clipped), off the origin.
const Rect kDie{-37, 11, -37 + 1013, 11 + 1333};

// Random wires of every shape stage 0 must route correctly: plain rects
// that may straddle the die edge, zero-width and zero-height wires, wires
// spanning many rows, wires that reach the next row only through their
// minSpacing halo, and wires wholly outside the die.
layout::Layout randomLayout(std::uint64_t seed, Coord spacing) {
  Rng rng(seed);
  layout::Layout chip(kDie, 3);
  for (int l = 0; l < chip.numLayers(); ++l) {
    auto& wires = chip.layer(l).wires;
    for (int k = 0; k < 160; ++k) {
      const Coord x = rng.uniformInt(kDie.xl - 60, kDie.xh + 20);
      const Coord y = rng.uniformInt(kDie.yl - 60, kDie.yh + 20);
      const Coord w = rng.uniformInt(1, 80);
      const Coord h = rng.uniformInt(1, 80);
      switch (rng.uniformInt(0, 5)) {
        case 0:
        case 1:
          wires.push_back({x, y, x + w, y + h});
          break;
        case 2:  // zero width or zero height
          wires.push_back(rng.bernoulli(0.5) ? Rect{x, y, x, y + h}
                                             : Rect{x, y, x + w, y});
          break;
        case 3:  // spans many rows
          wires.push_back({x, y - 6 * kWindow, x + w % 20 + 1, y});
          break;
        case 4: {  // ends within the halo of a row border, on either side
          const Coord border = kDie.yl + kWindow * rng.uniformInt(1, 13);
          const Coord gap = rng.uniformInt(0, spacing);
          wires.push_back(rng.bernoulli(0.5)
                              ? Rect{x, border - gap - h, x + w, border - gap}
                              : Rect{x, border + gap, x + w, border + gap + h});
          break;
        }
        default:  // outside the die
          wires.push_back({kDie.xh + x % 50 + 5, y, kDie.xh + x % 50 + 5 + w,
                           y + h});
          break;
      }
    }
  }
  return chip;
}

struct Reference {
  Buckets wires;
  Buckets blocked;
  std::vector<geom::Region> regions;
  std::vector<double> density;
  density::DensityBounds bounds;
};

Reference wholeLayerReference(const layout::Layout& chip, int layer,
                              const layout::WindowGrid& grid,
                              const layout::DesignRules& rules) {
  Reference ref;
  const std::vector<Rect>& wires = chip.layer(layer).wires;
  std::vector<Rect> inflated;
  for (const Rect& r : wires) inflated.push_back(r.expanded(rules.minSpacing));
  ref.wires = grid.bucketClipped(wires);
  ref.blocked = grid.bucketClipped(inflated);
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const std::vector<Rect> window{grid.windowRect(i, j)};
      ref.regions.push_back(geom::Region::fromDisjoint(geom::booleanOp(
          window, ref.blocked[ref.regions.size()], geom::BoolOp::kSubtract)));
    }
  }
  ref.density = density::DensityMap::computeFromShapes(wires, grid).values();
  ref.bounds = density::computeBounds(chip, layer, grid, ref.regions, rules);
  return ref;
}

TEST(Stage0EquivalenceTest, MatchesWholeLayerReferencesAtAnyThreadCount) {
  for (const Coord spacing : {Coord{0}, Coord{9}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const layout::Layout chip = randomLayout(seed, spacing);
      const layout::WindowGrid grid(chip.die(), kWindow);
      ASSERT_EQ(grid.cols(), 11);
      ASSERT_EQ(grid.rows(), 14);
      FillEngineOptions options;
      options.windowSize = kWindow;
      options.rules.minWidth = 6;
      options.rules.minSpacing = spacing;
      std::vector<Reference> refs;
      for (int l = 0; l < chip.numLayers(); ++l) {
        refs.push_back(wholeLayerReference(chip, l, grid, options.rules));
        // The serial entry point runs the same row kernel.
        Buckets blocked;
        EXPECT_EQ(layout::computeFillRegions(chip, l, grid, options.rules,
                                             &blocked),
                  refs.back().regions);
        EXPECT_EQ(blocked, refs.back().blocked);
      }
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message() << "spacing " << spacing << ", seed "
                                        << seed << ", " << threads
                                        << " threads");
        ThreadPool pool(threads);
        const detail::WindowPrep prep =
            detail::prepareWindows(chip, grid, options, 0, grid.rows() - 1,
                                   pool);
        ASSERT_EQ(prep.wires.size(), refs.size());
        for (std::size_t l = 0; l < refs.size(); ++l) {
          EXPECT_EQ(prep.wires[l], refs[l].wires) << "layer " << l;
          EXPECT_EQ(prep.blocked[l], refs[l].blocked) << "layer " << l;
          EXPECT_EQ(prep.fillRegions[l], refs[l].regions) << "layer " << l;
          EXPECT_EQ(prep.wireDensity[l], refs[l].density) << "layer " << l;
          EXPECT_EQ(prep.bounds[l].lower, refs[l].bounds.lower)
              << "layer " << l;
          EXPECT_EQ(prep.bounds[l].upper, refs[l].bounds.upper)
              << "layer " << l;
        }
      }
    }
  }
}

TEST(Stage0EquivalenceTest, PartialBandMatchesWholeLayerRows) {
  // The ECO's stage 0: prepareWindows over a band of rows fills those
  // rows of whole-grid tables exactly as the whole-layer references do.
  const layout::Layout chip = randomLayout(4, 9);
  const layout::WindowGrid grid(chip.die(), kWindow);
  FillEngineOptions options;
  options.windowSize = kWindow;
  options.rules.minWidth = 6;
  options.rules.minSpacing = 9;
  const auto nl = static_cast<std::size_t>(chip.numLayers());
  const auto windows = static_cast<std::size_t>(grid.windowCount());
  const auto cols = static_cast<std::size_t>(grid.cols());
  std::vector<Reference> refs;
  for (int l = 0; l < chip.numLayers(); ++l) {
    refs.push_back(wholeLayerReference(chip, l, grid, options.rules));
  }
  for (const auto& [j0, j1] : {std::pair{0, 0}, std::pair{5, 6},
                               std::pair{13, 13}, std::pair{0, 13}}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "rows " << j0 << ".." << j1 << ", "
                                      << threads << " threads");
      ThreadPool pool(threads);
      const detail::WindowPrep prep =
          detail::prepareWindows(chip, grid, options, j0, j1, pool);
      ASSERT_EQ(prep.wires.size(), nl);
      for (std::size_t l = 0; l < nl; ++l) {
        ASSERT_EQ(prep.wires[l].size(), windows);
        const Reference& ref = refs[l];
        for (std::size_t w = static_cast<std::size_t>(j0) * cols;
             w < static_cast<std::size_t>(j1 + 1) * cols; ++w) {
          EXPECT_EQ(prep.wires[l][w], ref.wires[w]) << l << "/" << w;
          EXPECT_EQ(prep.blocked[l][w], ref.blocked[w]) << l << "/" << w;
          EXPECT_EQ(prep.fillRegions[l][w], ref.regions[w]) << l << "/" << w;
          EXPECT_EQ(prep.wireDensity[l][w], ref.density[w]) << l << "/" << w;
          EXPECT_EQ(prep.bounds[l].lower[w], ref.bounds.lower[w])
              << l << "/" << w;
          EXPECT_EQ(prep.bounds[l].upper[w], ref.bounds.upper[w])
              << l << "/" << w;
        }
      }
    }
  }
}

TEST(Stage0EquivalenceTest, WiresPlusFillsDensityMatchesDensityMap) {
  // The ECO's legacy freeze: a density-only pass fed each layer's wires
  // and then its fills must equal DensityMap::compute, also on input fills
  // that overlap wires, each other and window borders. Engine-made fills
  // never do, so the ECO digests do not cover this case.
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    layout::Layout chip = randomLayout(seed, 9);
    Rng rng(seed * 31);
    for (int l = 0; l < chip.numLayers(); ++l) {
      auto& fills = chip.layer(l).fills;
      const auto& wires = chip.layer(l).wires;
      for (int k = 0; k < 120; ++k) {
        const Coord x = rng.uniformInt(kDie.xl - 20, kDie.xh);
        const Coord y = rng.uniformInt(kDie.yl - 20, kDie.yh);
        fills.push_back({x, y, x + rng.uniformInt(1, 150),
                         y + rng.uniformInt(1, 150)});
      }
      // Fills stacked on wires and on other fills.
      for (int k = 0; k < 40; ++k) {
        const std::vector<Rect>& from = rng.bernoulli(0.5) ? wires : fills;
        const Rect on = from[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(from.size()) - 1))];
        fills.push_back({on.xl - 3, on.yl + 2, on.xh + 5, on.yh + 7});
      }
    }
    const layout::WindowGrid grid(chip.die(), kWindow);
    FillEngineOptions options;
    options.windowSize = kWindow;
    options.rules.minSpacing = 9;
    const auto nl = static_cast<std::size_t>(chip.numLayers());
    detail::BandRects rows(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      const layout::Layer& layer = chip.layer(static_cast<int>(l));
      rows[l].resize(static_cast<std::size_t>(grid.rows()));
      layout::routeRows(grid, options.rules, layer.wires, 0, rows[l]);
      layout::routeRows(grid, options.rules, layer.fills, 0, rows[l]);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << threads
                                      << " threads");
      detail::WindowPrep asFilled;
      asFilled.wireDensity.assign(
          nl, std::vector<double>(
                  static_cast<std::size_t>(grid.windowCount())));
      ThreadPool pool(threads);
      detail::prepareBand(grid, options, 0, rows, 0, asFilled, pool);
      for (std::size_t l = 0; l < nl; ++l) {
        EXPECT_EQ(asFilled.wireDensity[l],
                  density::DensityMap::compute(chip, static_cast<int>(l), grid)
                      .values())
            << "layer " << l;
      }
    }
  }
}

}  // namespace
}  // namespace ofl::fill

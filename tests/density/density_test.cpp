#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "contest/benchmark_generator.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "fill/fill_engine.hpp"
#include "layout/fill_region.hpp"

namespace ofl::density {
namespace {

TEST(DensityMapTest, UniformCoverage) {
  layout::Layout chip({0, 0, 100, 100}, 1);
  chip.layer(0).wires.push_back({0, 0, 100, 50});  // covers half of each col
  const layout::WindowGrid grid(chip.die(), 50);
  const DensityMap map = DensityMap::compute(chip, 0, grid);
  EXPECT_DOUBLE_EQ(map.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(map.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(map.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(map.at(1, 1), 0.0);
}

TEST(DensityMapTest, OverlappingShapesCountOnce) {
  const layout::WindowGrid grid({0, 0, 10, 10}, 10);
  const DensityMap map = DensityMap::computeFromShapes(
      {{0, 0, 10, 5}, {0, 0, 5, 10}}, grid);
  EXPECT_DOUBLE_EQ(map.at(0, 0), 0.75);
}

TEST(DensityMapTest, FillsIncludedInLayerDensity) {
  layout::Layout chip({0, 0, 10, 10}, 1);
  chip.layer(0).wires.push_back({0, 0, 10, 2});
  chip.layer(0).fills.push_back({0, 5, 10, 8});
  const layout::WindowGrid grid(chip.die(), 10);
  EXPECT_DOUBLE_EQ(DensityMap::compute(chip, 0, grid).at(0, 0), 0.5);
}

TEST(MetricsTest, UniformMapHasZeroEverything) {
  const DensityMap map(4, 4, std::vector<double>(16, 0.42));
  const DensityMetrics m = computeMetrics(map);
  EXPECT_DOUBLE_EQ(m.mean, 0.42);
  EXPECT_DOUBLE_EQ(m.sigma, 0.0);
  EXPECT_DOUBLE_EQ(m.lineHotspot, 0.0);
  EXPECT_DOUBLE_EQ(m.outlierHotspot, 0.0);
}

TEST(MetricsTest, SigmaOfTwoPointDistribution) {
  // Half the windows at 0.2, half at 0.6: sigma = 0.2.
  std::vector<double> v(16, 0.2);
  for (int i = 8; i < 16; ++i) v[static_cast<std::size_t>(i)] = 0.6;
  const DensityMap map(4, 4, v);
  EXPECT_NEAR(variation(map), 0.2, 1e-12);
  EXPECT_NEAR(meanDensity(map), 0.4, 1e-12);
}

TEST(MetricsTest, LineHotspotsPerColumn) {
  // Column 0: densities 0 and 1 (column mean .5, deviation sum 1);
  // column 1: uniform (deviation 0). Eqn. (1) total = 1.
  const DensityMap map(2, 2, {0.0, 0.3, 1.0, 0.3});
  EXPECT_NEAR(lineHotspots(map), 1.0, 1e-12);
}

TEST(MetricsTest, ColumnUniformMapHasZeroLineHotspotsButPositiveSigma) {
  // Each column is internally uniform but columns differ: lh = 0, sigma > 0.
  const DensityMap map(2, 2, {0.1, 0.9, 0.1, 0.9});
  EXPECT_NEAR(lineHotspots(map), 0.0, 1e-12);
  EXPECT_GT(variation(map), 0.3);
}

TEST(MetricsTest, OutlierHotspotsOnlyBeyondThreeSigma) {
  // 99 windows at 0.5 and one at 1.0: the outlier exceeds 3 sigma.
  std::vector<double> v(100, 0.5);
  v[0] = 1.0;
  const DensityMap map(10, 10, v);
  const double sigma = variation(map);
  const double mean = meanDensity(map);
  const double expected = std::max(0.0, (1.0 - mean) - 3 * sigma);
  EXPECT_NEAR(outlierHotspots(map), expected + 99 * std::max(0.0, (mean - 0.5) - 3 * sigma), 1e-9);
  EXPECT_GT(outlierHotspots(map), 0.0);
}

TEST(MetricsTest, NoOutliersInTightDistribution) {
  const DensityMap map(2, 2, {0.50, 0.51, 0.49, 0.50});
  EXPECT_DOUBLE_EQ(outlierHotspots(map), 0.0);
}

TEST(BoundsTest, LowerIsWireDensityUpperAddsFreeSpace) {
  layout::Layout chip({0, 0, 100, 100}, 1);
  chip.layer(0).wires.push_back({0, 0, 100, 40});
  const layout::WindowGrid grid(chip.die(), 100);
  layout::DesignRules rules;
  rules.minWidth = 4;
  rules.minSpacing = 4;
  rules.minArea = 16;
  const auto regions = layout::computeFillRegions(chip, 0, grid, rules);
  const DensityBounds bounds = computeBounds(chip, 0, grid, regions, rules);
  ASSERT_EQ(bounds.lower.size(), 1u);
  EXPECT_NEAR(bounds.lower[0], 0.4, 1e-12);
  // Free space: y in [44, 100) -> 0.56 of the window.
  EXPECT_NEAR(bounds.upper[0], 0.4 + 0.56, 1e-12);
  EXPECT_LE(bounds.upper[0], 1.0);
}

TEST(BoundsTest, FullyWiredWindowHasNoHeadroom) {
  layout::Layout chip({0, 0, 50, 50}, 1);
  chip.layer(0).wires.push_back({0, 0, 50, 50});
  const layout::WindowGrid grid(chip.die(), 50);
  layout::DesignRules rules;
  const auto regions = layout::computeFillRegions(chip, 0, grid, rules);
  const DensityBounds bounds = computeBounds(chip, 0, grid, regions, rules);
  EXPECT_DOUBLE_EQ(bounds.lower[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds.upper[0], 1.0);
}

TEST(BoundsTest, UpperNeverBelowLower) {
  layout::Layout chip({0, 0, 200, 200}, 1);
  for (int k = 0; k < 12; ++k) {
    chip.layer(0).wires.push_back({k * 16, 0, k * 16 + 8, 200});
  }
  const layout::WindowGrid grid(chip.die(), 50);
  layout::DesignRules rules;
  rules.minSpacing = 6;
  rules.minWidth = 6;
  const auto regions = layout::computeFillRegions(chip, 0, grid, rules);
  const DensityBounds bounds = computeBounds(chip, 0, grid, regions, rules);
  for (std::size_t w = 0; w < bounds.lower.size(); ++w) {
    EXPECT_GE(bounds.upper[w] + 1e-12, bounds.lower[w]) << "window " << w;
  }
}

TEST(BoundsTest, EngineStage0BoundsMatchLayoutOverloadOnTinySuite) {
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
  const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  const layout::WindowGrid grid(chip.die(), spec.windowSize);
  const geom::Coord erode = spec.rules.minWidth / 2;
  fill::FillEngineOptions options;
  options.windowSize = spec.windowSize;
  options.rules = spec.rules;
  std::vector<DensityBounds> reference;
  for (int l = 0; l < chip.numLayers(); ++l) {
    const auto regions = layout::computeFillRegions(chip, l, grid, spec.rules);
    for (std::size_t w = 0; w < regions.size(); ++w) {
      EXPECT_EQ(regions[w].erodedEmpty(erode), regions[w].shrunk(erode).empty())
          << "layer " << l << " window " << w;
    }
    reference.push_back(computeBounds(chip, l, grid, regions, spec.rules));
  }
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    const fill::detail::WindowPrep prep =
        fill::detail::prepareWindows(chip, grid, options, 0,
                                     grid.rows() - 1, pool);
    ASSERT_EQ(prep.bounds.size(), reference.size());
    for (std::size_t l = 0; l < reference.size(); ++l) {
      EXPECT_EQ(prep.bounds[l].lower, reference[l].lower) << "layer " << l;
      EXPECT_EQ(prep.bounds[l].upper, reference[l].upper) << "layer " << l;
    }
  }
}

TEST(BoundsTest, SpanBoundMatchesRegionBoundInAnyRectOrder) {
  // Tiny-suite fill regions, plus free spaces whose erosion only the
  // fallback decides (a thin L and a notched block at minWidth 5).
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
  const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  const layout::WindowGrid grid(chip.die(), spec.windowSize);
  std::vector<std::pair<geom::Region, layout::DesignRules>> cases;
  for (int l = 0; l < chip.numLayers(); ++l) {
    for (geom::Region& region :
         layout::computeFillRegions(chip, l, grid, spec.rules)) {
      cases.emplace_back(std::move(region), spec.rules);
    }
  }
  layout::DesignRules narrow = spec.rules;
  narrow.minWidth = 5;
  const std::vector<geom::Rect> thinL{{0, 0, 20, 3}, {0, 3, 3, 20}};
  const std::vector<geom::Rect> notched{{0, 0, 3, 10}, {3, 0, 6, 11}};
  cases.emplace_back(geom::Region(thinL), narrow);
  cases.emplace_back(geom::Region(notched), narrow);

  Rng rng(2015);
  const geom::Area windowArea = 400;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [region, rules] = cases[c];
    const WindowBound expected =
        computeWindowBound(0.25, windowArea, region, rules);
    // The bound reads erosion exactly as shrunk() decides it.
    const bool fits = !region.shrunk(rules.minWidth / 2).empty();
    EXPECT_EQ(expected.upper > expected.lower, fits && region.area() > 0)
        << "case " << c;
    std::vector<geom::Rect> shuffled = region.rects();
    for (int round = 0; round < 3; ++round) {
      std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
      const WindowBound b =
          computeWindowBound(0.25, windowArea, shuffled, rules);
      EXPECT_EQ(b.lower, expected.lower) << "case " << c;
      EXPECT_EQ(b.upper, expected.upper) << "case " << c;
    }
  }
  // The notched block holds a 5x5 square, the thin L does not.
  EXPECT_EQ(computeWindowBound(0.25, windowArea, notched, narrow).upper,
            0.25 + 63.0 / 400);
  EXPECT_EQ(computeWindowBound(0.25, windowArea, thinL, narrow).upper, 0.25);
}

}  // namespace
}  // namespace ofl::density

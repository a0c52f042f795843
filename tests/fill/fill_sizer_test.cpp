#include "fill/fill_sizer.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "geometry/boolean.hpp"

namespace ofl::fill {
namespace {

layout::DesignRules rules() {
  layout::DesignRules r;
  r.minWidth = 10;
  r.minSpacing = 10;
  r.minArea = 150;
  r.maxFillSize = 100;
  return r;
}

geom::Area fillArea(const WindowProblem& p, int layer) {
  geom::Area a = 0;
  for (const auto& f : p.fills[static_cast<std::size_t>(layer)]) a += f.area();
  return a;
}

WindowProblem singleLayerProblem(std::vector<geom::Rect> fills,
                                 double target) {
  WindowProblem p;
  p.window = {0, 0, 400, 400};
  p.fillRegions = {geom::Region(p.window)};
  p.wires = {{}};
  p.wireDensity = {0.0};
  p.targetDensity = {target};
  p.fills = {std::move(fills)};
  return p;
}

class FillSizerBackendTest : public ::testing::TestWithParam<bool> {
 protected:
  FillSizer::Options options() const {
    FillSizer::Options o;
    o.useLpSolver = GetParam();
    o.iterations = 3;
    return o;
  }
};

TEST_P(FillSizerBackendTest, ShrinksTowardTargetDensity) {
  // Candidates cover 4 x (100x100) = 40000 = 25% density; target is 15%.
  WindowProblem p = singleLayerProblem(
      {{0, 0, 100, 100}, {150, 0, 250, 100}, {0, 150, 100, 250},
       {150, 150, 250, 250}},
      0.15);
  const geom::Area before = fillArea(p, 0);
  FillSizer(rules(), options()).size(p);
  const geom::Area after = fillArea(p, 0);
  EXPECT_LT(after, before);
  const double density =
      static_cast<double>(after) / static_cast<double>(p.window.area());
  EXPECT_NEAR(density, 0.15, 0.04);
}

TEST_P(FillSizerBackendTest, KeepsSizeWhenBelowTarget) {
  WindowProblem p = singleLayerProblem({{0, 0, 100, 100}}, 0.5);
  FillSizer(rules(), options()).size(p);
  EXPECT_EQ(p.fills[0][0], geom::Rect(0, 0, 100, 100));
}

TEST_P(FillSizerBackendTest, RespectsDrcMinimaWhenShrinking) {
  // Absurdly low target forces maximum shrinking; every fill must stay
  // DRC-legal (Eqns. 9e/9f via Eqn. 12 bounds).
  WindowProblem p = singleLayerProblem(
      {{0, 0, 100, 100}, {150, 0, 250, 100}, {0, 150, 100, 250}}, 0.001);
  FillSizer::Options o = options();
  o.iterations = 6;
  FillSizer(rules(), o).size(p);
  const layout::DesignRules r = rules();
  for (const auto& f : p.fills[0]) {
    EXPECT_GE(f.width(), r.minWidth);
    EXPECT_GE(f.height(), r.minWidth);
    EXPECT_GE(f.area(), r.minArea);
  }
  EXPECT_LT(fillArea(p, 0), 30000);
}

TEST_P(FillSizerBackendTest, ShrinkingReducesOverlay) {
  // One big fill on layer 0 overlapping a layer-1 wire half-way; density
  // target is generous so overlay drives the shrink.
  WindowProblem p;
  p.window = {0, 0, 400, 400};
  p.fillRegions = {geom::Region(p.window), geom::Region(p.window)};
  p.wires = {{}, {{0, 0, 60, 100}}};  // wire on layer 1 under fill's left
  p.wireDensity = {0.0, 60.0 * 100 / (400.0 * 400)};
  p.targetDensity = {0.04, 0.04};  // fill is 100x100 = 0.0625 > target
  p.fills = {{{0, 0, 100, 100}}, {}};

  const geom::Area overlayBefore =
      geom::intersectionArea(p.fills[0], p.wires[1]);
  FillSizer(rules(), options()).size(p);
  const geom::Area overlayAfter =
      geom::intersectionArea(p.fills[0], p.wires[1]);
  EXPECT_LT(overlayAfter, overlayBefore);
}

TEST_P(FillSizerBackendTest, RepairsSpacingViolation) {
  // Two fills 4 apart (rule: 10). Sizing must separate them (Eqn. 13).
  WindowProblem p = singleLayerProblem(
      {{0, 0, 100, 100}, {104, 0, 204, 100}}, 0.12);
  FillSizer(rules(), options()).size(p);
  ASSERT_EQ(p.fills[0].size(), 2u);
  EXPECT_GE(p.fills[0][1].xl - p.fills[0][0].xh, 10);
}

TEST_P(FillSizerBackendTest, DropsFillWhenSpacingUnrepairable) {
  // Two overlapping fills that cannot both stay: even shrunk to the min
  // width, [0,22) and [4,24) cannot clear a 10-DBU gap, so the smaller one
  // must be dropped.
  WindowProblem p = singleLayerProblem(
      {{0, 0, 22, 100}, {4, 0, 24, 100}}, 0.12);
  FillSizer::Stats stats;
  FillSizer(rules(), options()).size(p, &stats);
  EXPECT_EQ(p.fills[0].size(), 1u);
  EXPECT_GE(stats.droppedFills, 1);
}

TEST(FillSizerTest, DropFallbackReindexesBeforeNeighborsAreSized) {
  // Layer 0's first horizontal pass drops fill 1 of an unrepairable pair,
  // which shifts every later fill of that layer down by one; layer 1,
  // sized next in the same round, overlaps those fills. Its overlay
  // marginals must come from the shifted vector, not ids taken before the
  // drop. Expected fills recorded with per-pass opposing-shape copies.
  WindowProblem p;
  p.window = {0, 0, 400, 400};
  p.fillRegions = {geom::Region(p.window), geom::Region(p.window),
                   geom::Region(p.window)};
  p.wires = {{}, {{0, 300, 400, 320}}, {{140, 0, 170, 400}}};
  p.wireDensity = {0.0, 8000.0 / 160000, 12000.0 / 160000};
  p.targetDensity = {0.1, 0.12, 0.14};
  p.fills = {{{0, 0, 22, 100},
              {4, 0, 24, 100},
              {100, 0, 200, 100},
              {250, 0, 350, 100},
              {100, 200, 200, 300}},
             {{150, 50, 260, 150}, {120, 250, 180, 350}, {300, 20, 400, 80}},
             {{200, 30, 300, 130}, {0, 200, 100, 300}}};
  FillSizer::Stats stats;
  FillSizer(rules(), {}).size(p, &stats);
  EXPECT_EQ(stats.droppedFills, 1);
  const std::vector<std::vector<geom::Rect>> expected = {
      {{0, 6, 10, 94}, {121, 6, 179, 94}, {276, 6, 324, 94},
       {116, 207, 184, 293}},
      {{177, 50, 233, 150}, {139, 253, 159, 347}, {319, 20, 381, 80}},
      {{227, 31, 272, 129}, {19, 201, 81, 299}}};
  EXPECT_EQ(p.fills, expected);
}

TEST_P(FillSizerBackendTest, EmptyLayerIsNoop) {
  WindowProblem p = singleLayerProblem({}, 0.5);
  FillSizer::Stats stats;
  FillSizer(rules(), options()).size(p, &stats);
  EXPECT_TRUE(p.fills[0].empty());
  EXPECT_EQ(stats.droppedFills, 0);
}

TEST_P(FillSizerBackendTest, FillsOnlyShrinkNeverGrow) {
  WindowProblem p = singleLayerProblem(
      {{0, 0, 100, 100}, {150, 150, 230, 260}}, 0.02);
  const auto before = p.fills[0];
  FillSizer::Options o = options();
  o.iterations = 4;
  FillSizer(rules(), o).size(p);
  ASSERT_EQ(p.fills[0].size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(before[i].contains(p.fills[0][i]))
        << before[i].str() << " -> " << p.fills[0][i].str();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FillSizerBackendTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "DenseSimplex" : "DualMcf";
                         });

TEST(FillSizerTest, McfAndLpBackendsAgreeOnFinalArea) {
  WindowProblem base = singleLayerProblem(
      {{0, 0, 100, 100}, {150, 0, 250, 80}, {0, 150, 90, 250},
       {200, 200, 300, 300}},
      0.1);
  WindowProblem viaMcf = base;
  WindowProblem viaLp = base;
  FillSizer::Options mcfOpt;
  FillSizer::Options lpOpt;
  lpOpt.useLpSolver = true;
  FillSizer(rules(), mcfOpt).size(viaMcf);
  FillSizer(rules(), lpOpt).size(viaLp);
  // Same relaxation, exact solvers: identical objective-level outcome.
  geom::Area a1 = 0, a2 = 0;
  for (const auto& f : viaMcf.fills[0]) a1 += f.area();
  for (const auto& f : viaLp.fills[0]) a2 += f.area();
  EXPECT_EQ(a1, a2);
}

// Two-layer window with 2-4 fills per layer in one row of 100-DBU cells,
// every neighbor gap >= minSpacing. `coupled` layers get fill 1 pulled to
// within 1-9 DBU of fill 0, so their first horizontal pass carries a
// spacing pair and goes through the min-cost flow; every other pass has
// none and takes the closed form.
WindowProblem randomWindow(Rng& rng) {
  WindowProblem p;
  p.window = {0, 0, 400, 400};
  p.fillRegions = {geom::Region(p.window), geom::Region(p.window)};
  p.wires = {{}, {}};
  p.fills = {{}, {}};
  for (int l = 0; l < 2; ++l) {
    auto& wires = p.wires[static_cast<std::size_t>(l)];
    const int numWires = static_cast<int>(rng.uniformInt(0, 3));
    for (int w = 0; w < numWires; ++w) {
      const geom::Coord x = rng.uniformInt(0, 360);
      const geom::Coord y = rng.uniformInt(0, 360);
      wires.push_back({x, y, x + rng.uniformInt(10, 40),
                       y + rng.uniformInt(10, 40)});
    }
    auto& fills = p.fills[static_cast<std::size_t>(l)];
    const geom::Coord row = 100 * rng.uniformInt(0, 3);
    const int numFills = static_cast<int>(rng.uniformInt(2, 4));
    for (int k = 0; k < numFills; ++k) {
      const geom::Coord col = 100 * k;
      fills.push_back({col + rng.uniformInt(5, 20), row + rng.uniformInt(5, 20),
                       col + 100 - rng.uniformInt(5, 20),
                       row + 100 - rng.uniformInt(5, 20)});
    }
    if (rng.uniformInt(0, 1) == 1) {
      fills[1].xl = fills[0].xh + rng.uniformInt(1, 9);
    }
    geom::Area wireArea = 0;
    for (const geom::Rect& w : wires) wireArea += w.area();
    p.wireDensity.push_back(static_cast<double>(wireArea) /
                            static_cast<double>(p.window.area()));
    p.targetDensity.push_back(0.01 * static_cast<double>(rng.uniformInt(2, 15)));
  }
  return p;
}

TEST(FillSizerTest, ClosedFormAndCoupledPassesMatchReferenceBackends) {
  // The default backend sizes uncoupled passes in closed form and coupled
  // ones through the network-simplex dual flow; SSP and the dense simplex
  // solve every pass's full relaxation. All three must size every window
  // to the same fills. One Scratch per backend is reused across windows,
  // as the engine's per-thread scratch is.
  Rng rng(1505);
  std::vector<WindowProblem> windows;
  for (int w = 0; w < 300; ++w) windows.push_back(randomWindow(rng));

  FillSizer::Options nsOpt;
  nsOpt.iterations = 3;
  FillSizer::Options sspOpt = nsOpt;
  sspOpt.backend = mcf::McfBackend::kSuccessiveShortestPath;
  FillSizer::Options lpOpt = nsOpt;
  lpOpt.useLpSolver = true;
  FillSizer::Scratch nsScratch;
  FillSizer::Scratch sspScratch;
  FillSizer::Scratch lpScratch;
  FillSizer::Stats nsStats;
  FillSizer::Stats sspStats;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    WindowProblem viaNs = windows[w];
    WindowProblem viaSsp = windows[w];
    WindowProblem viaLp = windows[w];
    FillSizer(rules(), nsOpt).size(viaNs, nsScratch, &nsStats);
    FillSizer(rules(), sspOpt).size(viaSsp, sspScratch, &sspStats);
    FillSizer(rules(), lpOpt).size(viaLp, lpScratch);
    EXPECT_EQ(viaNs.fills, viaSsp.fills) << "window " << w;
    EXPECT_EQ(viaNs.fills, viaLp.fills) << "window " << w;
  }
  EXPECT_EQ(nsStats.solves, sspStats.solves);
  EXPECT_EQ(nsStats.spacingConstraints, sspStats.spacingConstraints);
  EXPECT_GT(nsStats.spacingConstraints, 0);
  EXPECT_GT(nsStats.closedFormSolves, 0);
  EXPECT_LT(nsStats.closedFormSolves, nsStats.solves);
  EXPECT_EQ(sspStats.closedFormSolves, 0);
}

}  // namespace
}  // namespace ofl::fill

#include "fill/fill_sizer.hpp"

#include <gtest/gtest.h>

#include "common/hash.hpp"
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

// Fingerprint of every window's sized fills, in window, layer and fill
// order.
void digestFills(const WindowProblem& p, Fnv1a64& h) {
  h.u64(p.fills.size());
  for (const auto& layer : p.fills) {
    h.u64(layer.size());
    for (const geom::Rect& f : layer) {
      h.i64(f.xl);
      h.i64(f.yl);
      h.i64(f.xh);
      h.i64(f.yh);
    }
  }
}

TEST(FillSizerClosePairTest, PairsFollowTheFrozenAxisAndTheCurrentRects) {
  const auto sized = [](std::vector<geom::Rect> fills) {
    WindowProblem p = singleLayerProblem(std::move(fills), 0.02);
    FillSizer::Stats stats;
    FillSizer(rules(), {}).size(p, &stats);
    return stats;
  };
  // Horizontally close (y-spans overlap, x-gap 4 < 10): one constraint in
  // the first horizontal pass, which separates the pair for good.
  EXPECT_EQ(sized({{0, 0, 100, 100}, {104, 0, 204, 100}}).spacingConstraints,
            1);
  // Vertically close, the mirror image.
  EXPECT_EQ(sized({{0, 0, 100, 100}, {0, 104, 100, 204}}).spacingConstraints,
            1);
  // Diagonal near-miss: both gaps are 5, but neither frozen axis
  // overlaps, so the pair is never close.
  const FillSizer::Stats diagonal =
      sized({{0, 0, 100, 100}, {105, 105, 205, 205}});
  EXPECT_EQ(diagonal.spacingConstraints, 0);
  EXPECT_EQ(diagonal.closedFormSolves, diagonal.solves);
  // Vertically close at candidate time (x-spans overlap by 10, y-gap 5),
  // but the first horizontal pass shrinks the x-overlap away, so no
  // vertical pass sees the pair.
  const FillSizer::Stats shrunkApart =
      sized({{0, 0, 100, 100}, {90, 105, 200, 205}});
  EXPECT_EQ(shrunkApart.spacingConstraints, 0);
  EXPECT_EQ(shrunkApart.closedFormSolves, shrunkApart.solves);
}

// Three-layer DRC-dirty window: fills on a jittered 110-DBU grid, so
// neighbours sit up to 19 DBU apart (many below the 10-DBU rule) or
// overlap, and a few near-duplicates overlap too much to repair within
// one pass, so the drop fallback re-indexes the window.
WindowProblem dirtyWindow(Rng& rng) {
  WindowProblem p;
  p.window = {0, 0, 600, 600};
  p.fillRegions.assign(3, geom::Region(p.window));
  p.wires.resize(3);
  p.fills.resize(3);
  for (std::size_t l = 0; l < 3; ++l) {
    const int numWires = static_cast<int>(rng.uniformInt(0, 4));
    for (int w = 0; w < numWires; ++w) {
      const geom::Coord x = rng.uniformInt(0, 560);
      const geom::Coord y = rng.uniformInt(0, 560);
      p.wires[l].push_back(l % 2 == 0
                               ? geom::Rect{0, y, 600, y + 20}
                               : geom::Rect{x, 0, x + 20, 600});
    }
    for (geom::Coord gy = 0; gy + 110 <= 600; gy += 110) {
      for (geom::Coord gx = 0; gx + 110 <= 600; gx += 110) {
        if (!rng.bernoulli(0.6)) continue;
        const geom::Coord x = gx + rng.uniformInt(-12, 8);
        const geom::Coord y = gy + rng.uniformInt(-12, 8);
        p.fills[l].push_back({std::max<geom::Coord>(x, 0),
                              std::max<geom::Coord>(y, 0),
                              x + rng.uniformInt(60, 110),
                              y + rng.uniformInt(60, 110)});
        if (rng.bernoulli(0.015)) {
          // Two narrow columns 2-6 DBU apart: even at the minimum width
          // they cannot clear the rule.
          geom::Rect& f = p.fills[l].back();
          f.xh = f.xl + rng.uniformInt(14, 22);
          const geom::Coord dx = rng.uniformInt(2, 6);
          const geom::Coord dy = rng.uniformInt(-4, 4);
          p.fills[l].push_back({f.xl + dx, f.yl + dy, f.xh + dx, f.yh + dy});
        }
      }
    }
    geom::Area wireArea = 0;
    for (const geom::Rect& w : p.wires[l]) wireArea += w.area();
    p.wireDensity.push_back(static_cast<double>(wireArea) /
                            static_cast<double>(p.window.area()));
    p.targetDensity.push_back(
        p.wireDensity.back() +
        0.01 * static_cast<double>(rng.uniformInt(5, 40)));
  }
  return p;
}

TEST(FillSizerClosePairTest, DirtyWindowsMatchRecordedSizing) {
  // Recorded with the per-pass grid-index close-pair search the window
  // sweep replaced: the same constraints, drops and fills.
  Rng rng(3030);
  FillSizer::Scratch scratch;
  FillSizer::Stats stats;
  Fnv1a64 digest;
  for (int w = 0; w < 200; ++w) {
    WindowProblem p = dirtyWindow(rng);
    FillSizer(rules(), {}).size(p, scratch, &stats);
    digestFills(p, digest);
  }
  EXPECT_EQ(stats.spacingConstraints, 1935);
  EXPECT_EQ(stats.droppedFills, 407);
  EXPECT_EQ(stats.infeasibleFallbacks, 129);
  EXPECT_EQ(digest.digest(), 12819921470575331311ull);
}

}  // namespace
}  // namespace ofl::fill

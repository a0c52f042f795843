// Property tests for FillSizer on randomized window problems: whatever
// the candidate layout, sizing may only shrink, must respect DRC minima,
// must land at or below target within trim precision, and must never
// create spacing violations that were not already present. The sizer's
// per-window contact lists must give the same overlay marginals as a
// brute scan of every opposing shape, however the fills shrink.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fill/fill_sizer.hpp"

namespace ofl::fill {
namespace {

layout::DesignRules rules() {
  layout::DesignRules r;
  r.minWidth = 10;
  r.minSpacing = 10;
  r.minArea = 150;
  r.maxFillSize = 120;
  return r;
}

// Random spacing-clean candidate set over a 2-layer window.
WindowProblem randomProblem(Rng& rng) {
  WindowProblem p;
  p.window = {0, 0, 1000, 1000};
  p.fillRegions = {geom::Region(p.window), geom::Region(p.window)};
  p.wires = {{}, {}};
  p.wireDensity = {0.0, 0.0};
  p.targetDensity = {rng.uniformReal(0.02, 0.3), rng.uniformReal(0.02, 0.3)};
  p.fills = {{}, {}};
  // Wires on layer 1 give layer 0 something to trade overlay against.
  const int wireCount = static_cast<int>(rng.uniformInt(0, 4));
  for (int k = 0; k < wireCount; ++k) {
    const geom::Coord w = rng.uniformInt(60, 300);
    const geom::Coord h = rng.uniformInt(60, 300);
    const geom::Coord x = rng.uniformInt(0, 1000 - w);
    const geom::Coord y = rng.uniformInt(0, 1000 - h);
    p.wires[1].push_back({x, y, x + w, y + h});
  }
  // Candidates on a jittered grid, always >= minSpacing apart.
  for (geom::Coord gy = 0; gy + 130 <= 1000; gy += 140) {
    for (geom::Coord gx = 0; gx + 130 <= 1000; gx += 140) {
      if (!rng.bernoulli(0.7)) continue;
      const geom::Coord w = rng.uniformInt(40, 120);
      const geom::Coord h = rng.uniformInt(40, 120);
      p.fills[0].push_back({gx, gy, gx + w, gy + h});
    }
  }
  return p;
}

class SizerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SizerPropertyTest, InvariantsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    WindowProblem p = randomProblem(rng);
    const std::vector<geom::Rect> before = p.fills[0];
    const double targetArea =
        p.targetDensity[0] * static_cast<double>(p.window.area());

    FillSizer(rules(), {}).size(p);

    // 1. Only shrink, never move outside the original box.
    ASSERT_EQ(p.fills[0].size(), before.size()) << "seed " << GetParam();
    geom::Area after = 0;
    geom::Coord tallest = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_TRUE(before[i].contains(p.fills[0][i]))
          << before[i].str() << " -> " << p.fills[0][i].str();
      after += p.fills[0][i].area();
      tallest = std::max(tallest, p.fills[0][i].height());
      // 2. DRC minima.
      EXPECT_TRUE(rules().shapeOk(p.fills[0][i])) << p.fills[0][i].str();
    }

    // 3. Density lands at/below target within one trim quantum (the trim
    // shrinks in whole columns of the tallest fill), unless the floor of
    // DRC-minimum shapes makes the target unreachable from above.
    geom::Area floorArea = 0;
    for (const auto& f : before) {
      const geom::Coord minW = std::max<geom::Coord>(
          rules().minWidth,
          (rules().minArea + f.height() - 1) / f.height());
      floorArea += minW * std::min<geom::Coord>(f.height(), f.height());
    }
    const double reachable =
        std::max(targetArea, static_cast<double>(floorArea));
    EXPECT_LE(static_cast<double>(after),
              reachable + static_cast<double>(tallest) + 1.0)
        << "seed " << GetParam() << " trial " << trial;

    // 4. No spacing violations among sized fills.
    for (std::size_t i = 0; i < p.fills[0].size(); ++i) {
      for (std::size_t j = i + 1; j < p.fills[0].size(); ++j) {
        EXPECT_GE(p.fills[0][i].distance(p.fills[0][j]),
                  static_cast<double>(rules().minSpacing))
            << p.fills[0][i].str() << " vs " << p.fills[0][j].str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SizerPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// Reference for detail::edgeMarginals: a brute scan of every opposing
// shape. Raising the LOW edge reduces overlap with shapes satisfying
// lo(s) <= edge < hi(s); lowering the HIGH edge with lo(s) < edge <= hi(s).
geom::Coord bruteMarginal(const geom::Rect& fill, bool horizontal,
                          bool lowEdge,
                          const std::vector<geom::Rect>& opposing) {
  const auto lo = [&](const geom::Rect& r) { return horizontal ? r.xl : r.yl; };
  const auto hi = [&](const geom::Rect& r) { return horizontal ? r.xh : r.yh; };
  const geom::Coord edge = lowEdge ? lo(fill) : hi(fill);
  geom::Coord total = 0;
  for (const geom::Rect& s : opposing) {
    const geom::Coord overlap = std::max<geom::Coord>(
        0, horizontal ? std::min(fill.yh, s.yh) - std::max(fill.yl, s.yl)
                      : std::min(fill.xh, s.xh) - std::max(fill.xl, s.xl));
    if (overlap <= 0) continue;
    const bool cuts = lowEdge ? (lo(s) <= edge && edge < hi(s))
                              : (lo(s) < edge && edge <= hi(s));
    if (cuts) total += overlap;
  }
  return total;
}

// Random rect on a 10-DBU lattice (so edges abut, touch and coincide
// often), occasionally with zero extent.
geom::Rect latticeRect(Rng& rng, const geom::Rect& window) {
  const geom::Coord x = 10 * rng.uniformInt(0, window.xh / 10 - 1);
  const geom::Coord y = 10 * rng.uniformInt(0, window.yh / 10 - 1);
  const geom::Coord w = rng.bernoulli(0.05) ? 0 : 10 * rng.uniformInt(1, 12);
  const geom::Coord h = 10 * rng.uniformInt(1, 12);
  return {x, y, std::min(x + w, window.xh), std::min(y + h, window.yh)};
}

class ContactMarginalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContactMarginalTest, MatchesBruteScanThroughShrinks) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    WindowProblem p;
    p.window = {0, 0, 400, 400};
    const auto numLayers = static_cast<std::size_t>(rng.uniformInt(3, 5));
    p.wires.resize(numLayers);
    p.fills.resize(numLayers);
    for (std::size_t l = 0; l < numLayers; ++l) {
      const int wires = static_cast<int>(rng.uniformInt(0, 25));
      for (int k = 0; k < wires; ++k) {
        p.wires[l].push_back(latticeRect(rng, p.window));
      }
      // Fills may overlap or sit closer than minSpacing (DRC-dirty).
      const int fills = static_cast<int>(rng.uniformInt(0, 30));
      for (int k = 0; k < fills; ++k) {
        geom::Rect f = latticeRect(rng, p.window);
        f.xh = std::max(f.xh, f.xl + 10);
        p.fills[l].push_back(f);
      }
    }
    FillSizer::Scratch scratch;
    detail::indexWindow(p, geom::windowCellSize(p.window, 40), scratch);

    for (int step = 0; step < 40; ++step) {
      for (std::size_t l = 0; l < numLayers; ++l) {
        std::vector<geom::Rect> wires;
        std::vector<geom::Rect> fills;
        for (const std::size_t nb : {l - 1, l + 1}) {
          if (nb >= numLayers) continue;
          wires.insert(wires.end(), p.wires[nb].begin(), p.wires[nb].end());
          fills.insert(fills.end(), p.fills[nb].begin(), p.fills[nb].end());
        }
        for (std::size_t k = 0; k < p.fills[l].size(); ++k) {
          const geom::Rect& f = p.fills[l][k];
          for (const bool horizontal : {true, false}) {
            const detail::EdgeMarginals m = detail::edgeMarginals(
                p, scratch, static_cast<int>(l), k, horizontal);
            const std::string where = "seed " + std::to_string(GetParam()) +
                                      " trial " + std::to_string(trial) +
                                      " step " + std::to_string(step) +
                                      " layer " + std::to_string(l) + " " +
                                      f.str() + (horizontal ? " H" : " V");
            ASSERT_EQ(m.wireLo, bruteMarginal(f, horizontal, true, wires))
                << where;
            ASSERT_EQ(m.fillLo, bruteMarginal(f, horizontal, true, fills))
                << where;
            ASSERT_EQ(m.wireHi, bruteMarginal(f, horizontal, false, wires))
                << where;
            ASSERT_EQ(m.fillHi, bruteMarginal(f, horizontal, false, fills))
                << where;
          }
        }
      }
      // Shrink a few fills: one edge moves inward by 1 DBU up to all but
      // 1 DBU of the extent, or by one lattice step.
      for (int s = 0; s < 8; ++s) {
        auto& fills = p.fills[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(numLayers) - 1))];
        if (fills.empty()) continue;
        geom::Rect& f = fills[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(fills.size()) - 1))];
        const bool horizontal = rng.bernoulli(0.5);
        geom::Coord& lo = horizontal ? f.xl : f.yl;
        geom::Coord& hi = horizontal ? f.xh : f.yh;
        if (hi - lo < 2) continue;
        const geom::Coord by = rng.bernoulli(0.5)
                                   ? rng.uniformInt(1, hi - lo - 1)
                                   : std::min<geom::Coord>(10, hi - lo - 1);
        if (rng.bernoulli(0.5)) {
          lo += by;
        } else {
          hi -= by;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContactMarginalTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace ofl::fill

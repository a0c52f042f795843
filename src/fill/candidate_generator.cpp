#include "fill/candidate_generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/prof.hpp"
#include "geometry/boolean.hpp"
#include "geometry/decompose.hpp"

namespace ofl::fill {
namespace {

// Tiles [lo, hi) with cells of exactly `size` at pitch size+gap; the
// remainder past the last full cell is dropped.
void splitSpanFixedInto(geom::Coord lo, geom::Coord hi, geom::Coord size,
                        geom::Coord gap, std::vector<geom::Interval>& out) {
  out.clear();
  for (geom::Coord cursor = lo; cursor + size <= hi; cursor += size + gap) {
    out.push_back({cursor, cursor + size});
  }
}

// Splits [lo, hi) into equal cells no wider than maxSize with `gap` between
// them; emits cell intervals. Cells narrower than minSize are dropped.
// When the equal division lands below minSize (minSize close to maxSize),
// fall back to fixed maxSize-pitch tiling: that keeps every emitted cell
// within [minSize, maxSize] and keeps the gap between consecutive cells,
// instead of the single gap-ignoring cell the fallback used to emit.
void splitSpanInto(geom::Coord lo, geom::Coord hi, geom::Coord maxSize,
                   geom::Coord gap, geom::Coord minSize,
                   std::vector<geom::Interval>& out) {
  out.clear();
  const geom::Coord span = hi - lo;
  if (span < minSize) return;
  const auto k = static_cast<geom::Coord>(
      (span + gap + maxSize) / (maxSize + gap));  // ceil(span+gap / max+gap)
  const geom::Coord cells = std::max<geom::Coord>(k, 1);
  const geom::Coord cellSize = (span - (cells - 1) * gap) / cells;
  if (cellSize < minSize) {
    splitSpanFixedInto(lo, hi, std::min(span, maxSize), gap, out);
    return;
  }
  geom::Coord cursor = lo;
  for (geom::Coord c = 0; c < cells; ++c) {
    out.push_back({cursor, cursor + cellSize});
    cursor += cellSize + gap;
  }
}

// Below this many neighbor shapes the brute-force Eqn. 8 scan beats the
// index build; both paths sum the same integers, so this is purely a
// performance threshold, never a results switch.
constexpr std::size_t kIndexMinShapes = 16;

}  // namespace

geom::Coord CandidateGenerator::gutter() const {
  geom::Coord g = rules_.minSpacing;
  if (options_.lithoAvoid.has_value() && g >= options_.lithoAvoid->forbiddenLo &&
      g < options_.lithoAvoid->forbiddenHi) {
    g = options_.lithoAvoid->forbiddenHi;
  }
  return g;
}

std::vector<geom::Rect> CandidateGenerator::sliceRegion(
    const geom::Region& region) const {
  return sliceRegion(region, rules_.maxFillSize);
}

std::vector<geom::Rect> CandidateGenerator::sliceRegion(
    const geom::Region& region, geom::Coord maxSize) const {
  std::vector<geom::Rect> candidates;
  Scratch scratch;
  sliceRegionInto(region.rects(), maxSize, candidates, scratch);
  return candidates;
}

void CandidateGenerator::sliceRegionInto(std::span<const geom::Rect> rects,
                                         geom::Coord maxSize,
                                         std::vector<geom::Rect>& candidates,
                                         Scratch& scratch) const {
  prof::ScopedTimer timer(prof::Stage::kCandidateSlice);
  candidates.clear();
  const geom::Coord gap = gutter();
  const geom::Coord inset = (gap + 1) / 2;
  // Merge decomposed slabs vertically first: taller source rects yield
  // larger (fewer) candidates, which directly helps the file-size score.
  scratch.sliceSources.assign(rects.begin(), rects.end());
  geom::mergeVerticalInPlace(scratch.sliceSources);
  for (const geom::Rect& src : scratch.sliceSources) {
    const geom::Rect r = src.expanded(-inset);
    if (r.empty() || r.width() < rules_.minWidth ||
        r.height() < rules_.minWidth) {
      continue;
    }
    if (options_.uniformCells) {
      splitSpanFixedInto(r.xl, r.xh, maxSize, gap, scratch.sliceXs);
      splitSpanFixedInto(r.yl, r.yh, maxSize, gap, scratch.sliceYs);
    } else {
      splitSpanInto(r.xl, r.xh, maxSize, gap, rules_.minWidth,
                    scratch.sliceXs);
      splitSpanInto(r.yl, r.yh, maxSize, gap, rules_.minWidth,
                    scratch.sliceYs);
    }
    for (const geom::Interval& ix : scratch.sliceXs) {
      for (const geom::Interval& iy : scratch.sliceYs) {
        const geom::Rect cell{ix.lo, iy.lo, ix.hi, iy.hi};
        if (rules_.shapeOk(cell)) candidates.push_back(cell);
      }
    }
  }
}

void CandidateGenerator::generate(WindowProblem& problem) const {
  Scratch scratch;
  generate(problem, scratch);
}

void CandidateGenerator::generate(WindowProblem& problem,
                                  Scratch& scratch) const {
  const int numLayers = static_cast<int>(problem.fillRegions.size());
  const auto windowArea = static_cast<double>(problem.window.area());
  problem.fills.assign(static_cast<std::size_t>(numLayers), {});
  if (windowArea <= 0) return;

  // Neighboring-layer shapes seen by the quality score: wires always,
  // candidates once chosen. NOTE: the combined set legitimately self-
  // overlaps (a point can be covered from both the layer below and the
  // layer above); Eqn. 8 couples to each neighbor shape, so the pairwise
  // sum — not the covered area — is the intended overlay.
  auto neighborShapes = [&problem, numLayers](int layer,
                                              std::vector<geom::Rect>& shapes) {
    shapes.clear();
    for (int nb : {layer - 1, layer + 1}) {
      if (nb < 0 || nb >= numLayers) continue;
      const auto& w = problem.wires[static_cast<std::size_t>(nb)];
      const auto& f = problem.fills[static_cast<std::size_t>(nb)];
      shapes.insert(shapes.end(), w.begin(), w.end());
      shapes.insert(shapes.end(), f.begin(), f.end());
    }
  };

  // Selection for area-ranked (odd) layers walks the ranked list
  // round-robin over a 3x3 spatial sub-grid of the window: best candidate
  // of each sub-cell first. Pure rank order would cluster fills in the
  // most open part of the window, which looks uniform at the fixed
  // dissection but shows up as spread in the multi-window (sliding)
  // analysis. Quality-ranked (even) layers take candidates in pure q
  // order: their ranking already encodes the overlay cost, which
  // dominates intra-window placement (Eqn. 8).
  auto takeSpatial = [&](int layer, const std::vector<geom::Rect>& ranked) {
    const double need =
        (options_.lambda * problem.targetDensity[static_cast<std::size_t>(layer)] -
         problem.wireDensity[static_cast<std::size_t>(layer)]) *
        windowArea;
    auto& out = problem.fills[static_cast<std::size_t>(layer)];
    constexpr int kGrid = 3;
    auto& buckets = scratch.takeBuckets;
    for (auto& b : buckets) b.clear();
    for (std::size_t c = 0; c < ranked.size(); ++c) {
      const geom::Coord cx = (ranked[c].xl + ranked[c].xh) / 2;
      const geom::Coord cy = (ranked[c].yl + ranked[c].yh) / 2;
      const auto bi = std::min<geom::Coord>(
          kGrid - 1, (cx - problem.window.xl) * kGrid /
                         std::max<geom::Coord>(problem.window.width(), 1));
      const auto bj = std::min<geom::Coord>(
          kGrid - 1, (cy - problem.window.yl) * kGrid /
                         std::max<geom::Coord>(problem.window.height(), 1));
      buckets[static_cast<std::size_t>(bj * kGrid + bi)].push_back(c);
    }
    std::array<std::size_t, kGrid * kGrid> cursor{};
    double got = 0.0;
    bool any = true;
    while (got < need && any) {
      any = false;
      for (std::size_t b = 0; b < buckets.size() && got < need; ++b) {
        if (cursor[b] >= buckets[b].size()) continue;
        const geom::Rect& c = ranked[buckets[b][cursor[b]++]];
        out.push_back(c);
        got += static_cast<double>(c.area());
        any = true;
      }
    }
  };

  auto takeRanked = [&](int layer, const std::vector<geom::Rect>& ranked) {
    const double need =
        (options_.lambda * problem.targetDensity[static_cast<std::size_t>(layer)] -
         problem.wireDensity[static_cast<std::size_t>(layer)]) *
        windowArea;
    auto& out = problem.fills[static_cast<std::size_t>(layer)];
    double got = 0.0;
    for (const geom::Rect& c : ranked) {
      if (got >= need) break;
      out.push_back(c);
      got += static_cast<double>(c.area());
    }
  };

  // --- Odd layers first (Alg. 1 lines 9-19; paper's 1-indexed odd layers
  // are our even indices 0, 2, ...). ---
  for (int l = 0; l < numLayers; l += 2) {
    const auto& fr = problem.fillRegions[static_cast<std::size_t>(l)];
    auto& ranked = scratch.ranked;
    ranked.clear();
    if (l + 1 < numLayers) {
      geom::Region shared;
      bool caseI = false;
      bool sharedInScratch = false;
      {
        prof::ScopedTimer regionTimer(prof::Stage::kCandidateRegion);
        const double dgSum =
            std::max(0.0,
                     problem.targetDensity[static_cast<std::size_t>(l)] -
                         problem.wireDensity[static_cast<std::size_t>(l)]) +
            std::max(0.0,
                     problem.targetDensity[static_cast<std::size_t>(l + 1)] -
                         problem.wireDensity[static_cast<std::size_t>(l + 1)]);
        const auto& frUp = problem.fillRegions[static_cast<std::size_t>(l + 1)];
        const double needArea = dgSum * windowArea;
        if (static_cast<double>(std::min(fr.area(), frUp.area())) >=
            needArea) {
          // The shared region is contained in both layers' fill regions,
          // so either layer's area upper-bounds it; when the bound already
          // fails Case I, skip the sweep entirely (ranked stays empty and
          // Case II below takes over, exactly as if shared had been
          // computed and found too small).
          if (problem.blocked.size() == static_cast<std::size_t>(numLayers)) {
            // Both fill regions are "window minus inflated wires"
            // (WindowProblem::blocked), so their intersection covers
            // window minus the union of BOTH blocker sets -- one subtract
            // sweep over the few source shapes instead of intersecting
            // the two many-slab decompositions. Identical result: the
            // sweep's canonical decomposition is a pure function of the
            // covered point set.
            auto& blk = scratch.blockers;
            const auto& lo = problem.blocked[static_cast<std::size_t>(l)];
            const auto& up = problem.blocked[static_cast<std::size_t>(l + 1)];
            blk.clear();
            blk.reserve(lo.size() + up.size());
            blk.insert(blk.end(), lo.begin(), lo.end());
            blk.insert(blk.end(), up.begin(), up.end());
            // Unsorted sweep output into a reused buffer: slicing sorts
            // its own merged copy, so the canonical Region sort (and the
            // Region wrapper itself) would be pure overhead here.
            geom::booleanOpInto({&problem.window, 1}, blk,
                                geom::BoolOp::kSubtract, scratch.sharedRects);
            sharedInScratch = true;
            geom::Area sharedArea = 0;
            for (const geom::Rect& r : scratch.sharedRects) {
              sharedArea += r.area();
            }
            caseI = static_cast<double>(sharedArea) >= needArea;
          } else {
            // Hand-built problems carry no blocker lists; intersect the
            // decompositions instead.
            shared = fr.intersect(frUp);
            caseI = static_cast<double>(shared.area()) >= needArea;
          }
        }
      }
      if (caseI) {
        // Case I (Fig. 4): both layers fit inside the shared free space;
        // restrict this layer's candidates to it so the even pass can
        // dodge them for zero fill-to-fill overlay.
        sliceRegionInto(sharedInScratch
                            ? std::span<const geom::Rect>(scratch.sharedRects)
                            : std::span<const geom::Rect>(shared.rects()),
                        rules_.maxFillSize, ranked, scratch);
      }
    }
    if (ranked.empty()) {
      // Case II (Fig. 5) or topmost layer: use the whole fill region,
      // biggest candidates first (Alg. 1 line 16).
      sliceRegionInto(fr.rects(), rules_.maxFillSize, ranked, scratch);
    }
    prof::count(prof::Counter::kCandidates, ranked.size());
    std::sort(ranked.begin(), ranked.end(),
              [](const geom::Rect& a, const geom::Rect& b) {
                if (a.area() != b.area()) return a.area() > b.area();
                return geom::RectYXLess{}(a, b);
              });
    takeSpatial(l, ranked);
  }

  // --- Even layers by quality score (Alg. 1 lines 20-24). ---
  for (int l = 1; l < numLayers; l += 2) {
    const auto& fr = problem.fillRegions[static_cast<std::size_t>(l)];
    auto& candidates = scratch.candidates;
    sliceRegionInto(fr.rects(), rules_.maxFillSize, candidates, scratch);
    prof::count(prof::Counter::kCandidates, candidates.size());
    auto& neighbors = scratch.neighbors;
    neighborShapes(l, neighbors);

    prof::ScopedTimer scoreTimer(prof::Stage::kCandidateScore);
    const bool indexed = neighbors.size() >= kIndexMinShapes;
    if (indexed) {
      scratch.neighborIndex.reset(
          problem.window,
          geom::windowCellSize(problem.window, rules_.maxFillSize));
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (neighbors[i].empty()) continue;  // zero overlay either way
        scratch.neighborIndex.insert(static_cast<std::uint32_t>(i),
                                     neighbors[i]);
      }
      prof::count(prof::Counter::kIndexBuilds);
      prof::count(prof::Counter::kIndexQueries, candidates.size());
    }
    auto& scored = scratch.scored;
    scored.clear();
    scored.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto area = static_cast<double>(candidates[c].area());
      geom::Area overlaySum = 0;
      if (indexed) {
        // Same pairwise sum as the brute scan: shapes the index never
        // visits cannot overlap the candidate, so they only drop zero
        // terms; integer addition commutes over the rest.
        scratch.neighborIndex.visit(
            candidates[c], [&](std::uint32_t id) {
              overlaySum += candidates[c].overlapArea(neighbors[id]);
            });
      } else {
        overlaySum = geom::overlapAreaSum(candidates[c], neighbors);
      }
      const auto overlay = static_cast<double>(overlaySum);
      const double q =
          -overlay / area + options_.gamma * area / windowArea;  // Eqn. (8)
      scored.push_back({q, c});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    auto& ranked = scratch.ranked;
    ranked.clear();
    ranked.reserve(scored.size());
    for (const auto& [q, c] : scored) ranked.push_back(candidates[c]);
    takeRanked(l, ranked);
  }

  // Hierarchical refinement: a window whose big-cell candidates fall short
  // of lambda * target gets a small-cell backfill in the remaining free
  // space. Deficits here would otherwise cap the second planning round's
  // upper bound and drag the whole layer's achievable uniformity down.
  const geom::Coord smallSize =
      std::max<geom::Coord>(3 * rules_.minWidth, rules_.maxFillSize / 8);
  prof::ScopedTimer refineTimer(prof::Stage::kCandidateRefine);
  for (int l = 0; l < numLayers; ++l) {
    auto& chosen = problem.fills[static_cast<std::size_t>(l)];
    double got = 0.0;
    for (const geom::Rect& f : chosen) got += static_cast<double>(f.area());
    const double need =
        (options_.lambda * problem.targetDensity[static_cast<std::size_t>(l)] -
         problem.wireDensity[static_cast<std::size_t>(l)]) *
        windowArea;
    if (got >= need) continue;
    auto& blockers = scratch.blockers;
    blockers.clear();
    blockers.reserve(chosen.size());
    for (const geom::Rect& f : chosen) {
      blockers.push_back(f.expanded(rules_.minSpacing));
    }
    // The span overload runs one boolean sweep instead of normalize +
    // subtract (expanded blockers overlap each other heavily, so the
    // Region() normalization pass it skips is nearly as big as the
    // subtract itself).
    const auto& region = problem.fillRegions[static_cast<std::size_t>(l)];
    const geom::Region leftover =
        region.subtract(std::span<const geom::Rect>(blockers));
    std::vector<geom::Rect>& cells = scratch.candidates;
    sliceRegionInto(leftover.rects(), smallSize, cells, scratch);
    std::sort(cells.begin(), cells.end(),
              [](const geom::Rect& a, const geom::Rect& b) {
                if (a.area() != b.area()) return a.area() > b.area();
                return geom::RectYXLess{}(a, b);
              });
    for (const geom::Rect& c : cells) {
      if (got >= need) break;
      chosen.push_back(c);
      got += static_cast<double>(c.area());
    }
  }
}

}  // namespace ofl::fill

#include "fill/fill_sizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/prof.hpp"
#include "lp/simplex.hpp"

namespace ofl::fill {
namespace {

using geom::Area;
using geom::Coord;
using geom::Rect;

// Below this many shapes in play, brute-force scans beat index builds;
// both paths compute identical integers, so this is a performance
// threshold only, never a results switch.
constexpr std::size_t kIndexMinShapes = 16;

// Axis abstraction: `horizontal` passes size x-extents with y frozen;
// vertical passes swap the roles.
struct AxisView {
  bool horizontal;
  Coord lo(const Rect& r) const { return horizontal ? r.xl : r.yl; }
  Coord hi(const Rect& r) const { return horizontal ? r.xh : r.yh; }
  Coord frozenLen(const Rect& r) const {
    return horizontal ? r.height() : r.width();
  }
  // Overlap extent in the frozen axis between two rects.
  Coord frozenOverlap(const Rect& a, const Rect& b) const {
    const Coord o = horizontal
                        ? std::min(a.yh, b.yh) - std::max(a.yl, b.yl)
                        : std::min(a.xh, b.xh) - std::max(a.xl, b.xl);
    return std::max<Coord>(o, 0);
  }
  void apply(Rect& r, Coord newLo, Coord newHi) const {
    if (horizontal) {
      r.xl = newLo;
      r.xh = newHi;
    } else {
      r.yl = newLo;
      r.yh = newHi;
    }
  }
};

// Marginal overlay of moving an edge inward: total frozen-axis overlap of
// opposing shapes that the edge currently cuts through. Raising the LOW
// edge reduces overlap with shapes satisfying lo(s) <= edge < hi(s);
// lowering the HIGH edge with lo(s) < edge <= hi(s).
//
// With `index` non-null the candidate set comes from a GridIndex query for
// the one-DBU strip the edge sweeps; the exact cut test still runs per
// candidate, so the total is the same integer sum in a different order.
Coord overlayMarginal(const Rect& fill, Coord edge, bool isLowEdge,
                      const std::vector<Rect>& opposing,
                      const geom::GridIndex* index, const AxisView& ax) {
  Coord total = 0;
  const auto accumulate = [&](const Rect& s) {
    if (ax.frozenOverlap(fill, s) <= 0) return;
    const bool cuts = isLowEdge ? (ax.lo(s) <= edge && edge < ax.hi(s))
                                : (ax.lo(s) < edge && edge <= ax.hi(s));
    if (cuts) total += ax.frozenOverlap(fill, s);
  };
  if (index == nullptr) {
    for (const Rect& s : opposing) accumulate(s);
    return total;
  }
  // Shapes cutting the edge are exactly those intersecting the one-DBU
  // strip at the edge (low: [edge, edge+1); high: [edge-1, edge)) with the
  // fill's frozen extent; anything else contributes zero.
  Rect query = fill;
  if (ax.horizontal) {
    query.xl = isLowEdge ? edge : edge - 1;
    query.xh = query.xl + 1;
  } else {
    query.yl = isLowEdge ? edge : edge - 1;
    query.yh = query.yl + 1;
  }
  index->visit(query, [&](std::uint32_t id) {
    accumulate(opposing[static_cast<std::size_t>(id)]);
  });
  return total;
}

void buildIndex(geom::GridIndex& index, const Rect& window, Coord cellSize,
                const std::vector<Rect>& shapes) {
  index.reset(window, cellSize);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].empty()) continue;  // contributes zero either way
    index.insert(static_cast<std::uint32_t>(i), shapes[i]);
  }
  prof::count(prof::Counter::kIndexBuilds);
}

// All unordered fill pairs (i < j) with frozen-axis overlap whose gap in
// the variable axis is below minSpacing. Membership is evaluated with the
// symmetric max-gap form max(lo_j - hi_i, lo_i - hi_j): for non-empty
// intervals it admits a pair iff the lo-ordered oriented gap does (when
// the oriented gap is not the max, the other gap is negative, hence below
// any minSpacing >= 0), so the repair-need pass and the constraint pass
// can share one list. The indexed path queries each fill's variable-axis
// expansion by minSpacing — intersection with the expansion is exactly
// "both oriented gaps < minSpacing" — then sorts, matching the brute
// (i, j)-ascending order.
void collectClosePairs(const std::vector<Rect>& fills, const AxisView& ax,
                       Coord minSpacing, const geom::GridIndex* index,
                       std::vector<std::pair<std::size_t, std::size_t>>& out) {
  out.clear();
  const auto maxGap = [&](std::size_t i, std::size_t j) {
    return std::max(ax.lo(fills[j]) - ax.hi(fills[i]),
                    ax.lo(fills[i]) - ax.hi(fills[j]));
  };
  if (index == nullptr) {
    for (std::size_t i = 0; i < fills.size(); ++i) {
      for (std::size_t j = i + 1; j < fills.size(); ++j) {
        if (ax.frozenOverlap(fills[i], fills[j]) <= 0) continue;
        if (maxGap(i, j) < minSpacing) out.push_back({i, j});
      }
    }
    return;
  }
  for (std::size_t i = 0; i < fills.size(); ++i) {
    Rect query = fills[i];
    if (ax.horizontal) {
      query.xl -= minSpacing;
      query.xh += minSpacing;
    } else {
      query.yl -= minSpacing;
      query.yh += minSpacing;
    }
    index->visit(query, [&](std::uint32_t id) {
      const auto j = static_cast<std::size_t>(id);
      if (j <= i) return;  // each pair once, from its smaller index
      if (ax.frozenOverlap(fills[i], fills[j]) <= 0) return;
      if (maxGap(i, j) < minSpacing) out.push_back({i, j});
    });
  }
  std::sort(out.begin(), out.end());
}

}  // namespace

void FillSizer::size(WindowProblem& problem, Stats* stats) const {
  Scratch scratch;
  size(problem, scratch, stats);
}

void FillSizer::size(WindowProblem& problem, Scratch& scratch,
                     Stats* stats) const {
  const int numLayers = static_cast<int>(problem.fills.size());
  for (int round = 0; round < options_.iterations; ++round) {
    for (const bool horizontal : {true, false}) {
      for (int l = 0; l < numLayers; ++l) {
        sizeLayerDirection(problem, l, horizontal, scratch, stats);
      }
    }
  }
  // Final exact trim: the LP iterations stop within one step-rounding of
  // the target; a deterministic width trim removes the residual surplus so
  // the window lands on its target density to DBU precision.
  for (int l = 0; l < numLayers; ++l) {
    trimToTarget(problem, l, scratch);
  }
}

void FillSizer::trimToTarget(WindowProblem& problem, int layer,
                             Scratch& scratch) const {
  auto& fills = problem.fills[static_cast<std::size_t>(layer)];
  if (fills.empty()) return;
  const auto windowArea = static_cast<double>(problem.window.area());
  const double target =
      (problem.targetDensity[static_cast<std::size_t>(layer)] -
       problem.wireDensity[static_cast<std::size_t>(layer)]) *
      windowArea;
  Area fillArea = 0;
  for (const Rect& f : fills) fillArea += f.area();
  Area surplus = fillArea - static_cast<Area>(target);
  if (surplus <= 0) return;

  // Prefer trimming fills whose right edge currently cuts opposing shapes
  // (free overlay win); opposing geometry is the neighboring layers'.
  const int numLayers = static_cast<int>(problem.fills.size());
  auto& opposing = scratch.opposingWires;  // combined wires + fills here
  opposing.clear();
  for (int nb : {layer - 1, layer + 1}) {
    if (nb < 0 || nb >= numLayers) continue;
    const auto& w = problem.wires[static_cast<std::size_t>(nb)];
    const auto& f = problem.fills[static_cast<std::size_t>(nb)];
    opposing.insert(opposing.end(), w.begin(), w.end());
    opposing.insert(opposing.end(), f.begin(), f.end());
  }
  const geom::GridIndex* index = nullptr;
  if (opposing.size() >= kIndexMinShapes) {
    buildIndex(scratch.wireIndex, problem.window,
               geom::windowCellSize(problem.window, rules_.maxFillSize),
               opposing);
    index = &scratch.wireIndex;
    prof::count(prof::Counter::kIndexQueries, fills.size());
  }
  const AxisView ax{true};
  std::vector<std::pair<Coord, std::size_t>> order;  // (-marginal, index)
  order.reserve(fills.size());
  {
    prof::ScopedTimer overlayTimer(prof::Stage::kSizerOverlay);
    for (std::size_t i = 0; i < fills.size(); ++i) {
      order.push_back(
          {-overlayMarginal(fills[i], fills[i].xh, false, opposing, index, ax),
           i});
    }
  }
  std::sort(order.begin(), order.end());

  for (const auto& [negMarginal, i] : order) {
    if (surplus <= 0) break;
    Rect& f = fills[i];
    const Coord h = f.height();
    const Coord minLen = std::max(
        rules_.minWidth, static_cast<Coord>((rules_.minArea + h - 1) / h));
    const Coord canShrink = f.width() - minLen;
    const Coord want = static_cast<Coord>(surplus / h);
    const Coord shrink = std::min(canShrink, want);
    if (shrink <= 0) continue;
    f.xh -= shrink;
    surplus -= static_cast<Area>(shrink) * h;
  }
}

void FillSizer::sizeLayerDirection(WindowProblem& problem, int layer,
                                   bool horizontal, Scratch& scratch,
                                   Stats* stats) const {
  auto& fills = problem.fills[static_cast<std::size_t>(layer)];
  if (fills.empty()) return;
  const AxisView ax{horizontal};
  const int numLayers = static_cast<int>(problem.fills.size());

  // Opposing geometry (frozen for this pass): wires and fills of l +- 1,
  // kept separate so overlay with signal wires can be weighted harder.
  auto& opposingWires = scratch.opposingWires;
  auto& opposingFills = scratch.opposingFills;
  opposingWires.clear();
  opposingFills.clear();
  for (int nb : {layer - 1, layer + 1}) {
    if (nb < 0 || nb >= numLayers) continue;
    const auto& w = problem.wires[static_cast<std::size_t>(nb)];
    const auto& f = problem.fills[static_cast<std::size_t>(nb)];
    opposingWires.insert(opposingWires.end(), w.begin(), w.end());
    opposingFills.insert(opposingFills.end(), f.begin(), f.end());
  }

  // Per-pass spatial indexes over the (frozen) opposing sets and this
  // layer's own fills. Every indexed total re-checks the exact predicate
  // per candidate shape, so results match the brute scans bit for bit.
  const geom::GridIndex* wireIndex = nullptr;
  const geom::GridIndex* fillIndex = nullptr;
  const geom::GridIndex* selfIndex = nullptr;
  if (opposingWires.size() + opposingFills.size() + fills.size() >=
      kIndexMinShapes) {
    const Coord cell =
        geom::windowCellSize(problem.window, rules_.maxFillSize);
    buildIndex(scratch.wireIndex, problem.window, cell, opposingWires);
    buildIndex(scratch.fillIndex, problem.window, cell, opposingFills);
    buildIndex(scratch.selfIndex, problem.window, cell, fills);
    wireIndex = &scratch.wireIndex;
    fillIndex = &scratch.fillIndex;
    selfIndex = &scratch.selfIndex;
    // 4 marginal queries per fill (2 edges x wires/fills) + 1 pair query.
    prof::count(prof::Counter::kIndexQueries, 5 * fills.size());
  }

  // Density pressure: above target rewards shrinking, below target
  // penalizes it (Eqn. 10's absolute value, linearized at the current
  // point since fills only shrink).
  Area fillArea = 0;
  for (const Rect& f : fills) fillArea += f.area();
  const auto windowArea = static_cast<double>(problem.window.area());
  const double target =
      problem.targetDensity[static_cast<std::size_t>(layer)] * windowArea -
      problem.wireDensity[static_cast<std::size_t>(layer)] * windowArea;
  const double surplus = static_cast<double>(fillArea) - target;
  const int densitySign = surplus > 0 ? 1 : -1;

  // Per-fill geometry and overlay marginals, computed up front so the
  // step budget below can weight them.
  const std::size_t n = fills.size();
  auto& frozen = scratch.frozen;
  auto& minLen = scratch.minLen;
  auto& ovLo = scratch.ovLo;
  auto& ovHi = scratch.ovHi;
  frozen.resize(n);
  minLen.resize(n);
  ovLo.resize(n);
  ovHi.resize(n);
  {
    prof::ScopedTimer overlayTimer(prof::Stage::kSizerOverlay);
    for (std::size_t i = 0; i < n; ++i) {
      const Rect& f = fills[i];
      frozen[i] = ax.frozenLen(f);
      // Legal minimum extent in this axis: width rule and area rule with
      // the other axis frozen (Eqn. 12).
      minLen[i] = std::max(
          rules_.minWidth,
          static_cast<Coord>((rules_.minArea + frozen[i] - 1) / frozen[i]));
      // Wire overlay weighted by etaWireFactor relative to fill overlay.
      const double wf = options_.etaWireFactor;
      ovLo[i] = static_cast<Coord>(std::llround(
          wf * static_cast<double>(
                   overlayMarginal(f, ax.lo(f), /*isLowEdge=*/true,
                                   opposingWires, wireIndex, ax)) +
          static_cast<double>(overlayMarginal(f, ax.lo(f), /*isLowEdge=*/true,
                                              opposingFills, fillIndex, ax))));
      ovHi[i] = static_cast<Coord>(std::llround(
          wf * static_cast<double>(
                   overlayMarginal(f, ax.hi(f), /*isLowEdge=*/false,
                                   opposingWires, wireIndex, ax)) +
          static_cast<double>(overlayMarginal(f, ax.hi(f), /*isLowEdge=*/false,
                                              opposingFills, fillIndex, ax))));
    }
  }

  // Per-iteration shrink steps (paper: "variables are bounded to a certain
  // range ... updated according to the results of each iteration"). When
  // above target, the total step budget removes roughly the surplus and no
  // more (the |.| of Eqn. 10 is linearized at the current point, so
  // overshooting past the target would invalidate the sign); the budget is
  // weighted toward fills whose edges currently cut opposing shapes, which
  // is what converts the shared shrink into overlay reduction. Below
  // target, a small uniform step still lets overlay-dominated fills trade
  // density away. Rounding down is deliberate — the residual surplus is
  // removed exactly by trimToTarget afterwards.
  auto& step = scratch.step;
  step.assign(n, rules_.minSpacing);
  if (surplus > 0) {
    double weightedFrozen = 0.0;
    auto& weight = scratch.weight;
    weight.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ovFraction =
          static_cast<double>(ovLo[i] + ovHi[i]) /
          std::max(2.0 * static_cast<double>(frozen[i]), 1.0);
      weight[i] = 1.0 + options_.eta * ovFraction;
      weightedFrozen += weight[i] * static_cast<double>(frozen[i]);
    }
    const double base =
        weightedFrozen > 0 ? surplus / (2.0 * weightedFrozen) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      step[i] = static_cast<Coord>(std::floor(base * weight[i]));
    }
  }

  // One shared close-pair list drives both the repair budget and the
  // spacing constraints (their membership conditions are equivalent; see
  // collectClosePairs).
  auto& closePairs = scratch.closePairs;
  collectClosePairs(fills, ax, rules_.minSpacing, selfIndex, closePairs);

  // Fills involved in spacing violations get extra shrink freedom, enough
  // for one fill alone to clear the worst of its violations: repairing DRC
  // outranks the step budget.
  auto& repairNeed = scratch.repairNeed;
  repairNeed.assign(n, 0);
  for (const auto& [i, j] : closePairs) {
    const Coord gap = std::max(ax.lo(fills[j]) - ax.hi(fills[i]),
                               ax.lo(fills[i]) - ax.hi(fills[j]));
    const Coord need = rules_.minSpacing - gap;
    repairNeed[i] = std::max(repairNeed[i], need);
    repairNeed[j] = std::max(repairNeed[j], need);
  }

  // Per-fill edge variables of the relaxation: the lo edge may rise and
  // the hi edge fall by at most maxShrinkEach, subject to hi - lo >= minLen.
  const auto edgeVariables = [&](std::size_t fi) {
    const Rect& f = fills[fi];
    const Coord lo = ax.lo(f);
    const Coord hi = ax.hi(f);
    const Coord fullFreedom = hi - lo - minLen[fi];
    const Coord maxShrinkEach = std::max<Coord>(
        0, std::min(std::max(step[fi], repairNeed[fi]), fullFreedom));
    const auto etaScaled = [this](Coord v) {
      return static_cast<mcf::Value>(
          std::llround(options_.eta * static_cast<double>(v)));
    };
    // d(objective)/d(hiEdge) = densitySign * frozen + eta * ovHi;
    // d(objective)/d(loEdge) is the mirror image.
    const mcf::Value costHi = densitySign * frozen[fi] + etaScaled(ovHi[fi]);
    const mcf::Value costLo = -densitySign * frozen[fi] - etaScaled(ovLo[fi]);
    return std::pair{mcf::PairVariable{costLo, lo, lo + maxShrinkEach},
                     mcf::PairVariable{costHi, hi - maxShrinkEach, hi}};
  };
  const auto applyEdges = [&](const std::vector<mcf::Value>& x) {
    for (std::size_t i = 0; i < fills.size(); ++i) {
      const Coord newLo = x[2 * i];
      const Coord newHi = x[2 * i + 1];
      assert(newHi > newLo);
      ax.apply(fills[i], newLo, newHi);
    }
  };

  // Uncoupled pass (no spacing pair): the LP separates into one
  // two-variable problem per fill, whose componentwise-least optimum --
  // the answer DualMcfContext returns -- has a closed form. The SSP and
  // dense-simplex backends keep solving the full relaxation as references.
  if (closePairs.empty() && !options_.useLpSolver &&
      options_.backend == mcf::McfBackend::kNetworkSimplex) {
    if (stats != nullptr) {
      ++stats->solves;
      ++stats->closedFormSolves;
    }
    prof::count(prof::Counter::kSizerClosedForm);
    auto& edges = scratch.edges;
    edges.resize(2 * n);
    for (std::size_t fi = 0; fi < n; ++fi) {
      const auto [vLo, vHi] = edgeVariables(fi);
      const auto x = mcf::solvePairLp(vHi, vLo, minLen[fi]);
      if (!x.has_value()) return;  // infeasible LP: keep current sizes
      edges[2 * fi] = x->second;
      edges[2 * fi + 1] = x->first;
    }
    applyEdges(edges);
    return;
  }

  // Build the differential LP: variables 2k (lo edge), 2k+1 (hi edge).
  mcf::DifferentialLp lp;
  for (std::size_t fi = 0; fi < n; ++fi) {
    const auto [vLo, vHi] = edgeVariables(fi);
    const int iLo = lp.addVariable(vLo.cost, vLo.lo, vLo.hi);
    const int iHi = lp.addVariable(vHi.cost, vHi.lo, vHi.hi);
    lp.addConstraint(iHi, iLo, minLen[fi]);  // hi - lo >= minLen
  }

  // Spacing repair constraints (Eqn. 13): pairs violating the spacing rule
  // in this axis with frozen-axis overlap. Candidate generation normally
  // leaves none; this path exists for DRC-dirty inputs.
  std::vector<std::pair<std::size_t, std::size_t>> violating;
  for (const auto& [i, j] : closePairs) {
    const std::size_t left = ax.lo(fills[i]) <= ax.lo(fills[j]) ? i : j;
    const std::size_t right = left == i ? j : i;
    // lo(right) - hi(left) >= minSpacing
    lp.addConstraint(static_cast<int>(2 * right),
                     static_cast<int>(2 * left + 1), rules_.minSpacing);
    violating.push_back({left, right});
    if (stats != nullptr) ++stats->spacingConstraints;
  }

  auto solveRelaxation = [this, &scratch, layer,
                          horizontal](const mcf::DifferentialLp& dlp) {
    if (!options_.useLpSolver) {
      // Per-(layer, direction) context: within a window, round r >= 2
      // revisits the same topology and reuses the round r-1 network.
      const std::size_t key =
          static_cast<std::size_t>(layer) * 2 + (horizontal ? 1 : 0);
      if (scratch.mcfBackend != options_.backend) {
        scratch.mcfContexts.clear();
        scratch.mcfBackend = options_.backend;
      }
      if (scratch.mcfContexts.size() <= key) {
        scratch.mcfContexts.resize(key + 1,
                                   mcf::DualMcfContext(options_.backend));
      }
      return scratch.mcfContexts[key].solve(dlp);
    }
    // Ablation backend: identical model through the dense simplex.
    lp::LpModel model;
    for (int v = 0; v < dlp.numVariables(); ++v) {
      model.addVariable(static_cast<double>(dlp.cost(v)),
                        static_cast<double>(dlp.lower(v)),
                        static_cast<double>(dlp.upper(v)));
    }
    for (const mcf::DiffConstraint& c : dlp.constraints()) {
      model.addConstraint({{c.i, 1.0}, {c.j, -1.0}},
                          lp::Sense::kGreaterEqual,
                          static_cast<double>(c.bound));
    }
    mcf::DiffLpResult out;
    const lp::LpResult r = lp::SimplexSolver().solve(model);
    if (r.status == lp::LpStatus::kOptimal) {
      out.feasible = true;
      out.x.resize(r.x.size());
      for (std::size_t v = 0; v < r.x.size(); ++v) {
        // Differential systems are totally unimodular, so the LP optimum
        // is integral up to floating-point noise.
        out.x[v] = static_cast<mcf::Value>(std::llround(r.x[v]));
      }
      out.objective = dlp.objective(out.x);
    }
    return out;
  };

  mcf::DiffLpResult result = solveRelaxation(lp);
  if (stats != nullptr) {
    ++stats->solves;
    if (result.usedWarmStart) ++stats->warmStarts;
    if (result.usedEarlyExit) ++stats->earlyExits;
  }

  if (!result.feasible && !violating.empty()) {
    // Spacing cannot be repaired within the per-iteration step: drop the
    // smaller fill of each violating pair and re-run.
    if (stats != nullptr) ++stats->infeasibleFallbacks;
    std::vector<char> dropped(fills.size(), 0);
    for (const auto& [a, b] : violating) {
      const std::size_t victim = fills[a].area() <= fills[b].area() ? a : b;
      dropped[victim] = 1;
    }
    std::vector<Rect> kept;
    for (std::size_t i = 0; i < fills.size(); ++i) {
      if (dropped[i] == 0) {
        kept.push_back(fills[i]);
      } else if (stats != nullptr) {
        ++stats->droppedFills;
      }
    }
    fills = std::move(kept);
    sizeLayerDirection(problem, layer, horizontal, scratch, stats);
    return;
  }
  if (!result.feasible) return;  // keep current sizes
  applyEdges(result.x);
}

}  // namespace ofl::fill

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

// All unordered fill pairs (i < j) with frozen-axis overlap whose gap in
// the variable axis is below minSpacing. Membership is evaluated with the
// symmetric max-gap form max(lo_j - hi_i, lo_i - hi_j): for non-empty
// intervals it admits a pair iff the lo-ordered oriented gap does (when
// the oriented gap is not the max, the other gap is negative, hence below
// any minSpacing >= 0), so the repair-need pass and the constraint pass
// can share one list. Each fill queries the layer's window index (ids:
// `numWires` wires, then fills) with its variable-axis expansion by
// minSpacing -- intersection with the expansion is exactly "both oriented
// gaps < minSpacing" -- and the list is sorted into (i, j) order.
void collectClosePairs(const std::vector<Rect>& fills, std::size_t numWires,
                       const AxisView& ax, Coord minSpacing,
                       const geom::GridIndex& index,
                       std::vector<std::pair<std::size_t, std::size_t>>& out) {
  out.clear();
  const auto maxGap = [&](std::size_t i, std::size_t j) {
    return std::max(ax.lo(fills[j]) - ax.hi(fills[i]),
                    ax.lo(fills[i]) - ax.hi(fills[j]));
  };
  prof::count(prof::Counter::kIndexQueries, fills.size());
  for (std::size_t i = 0; i < fills.size(); ++i) {
    Rect query = fills[i];
    if (ax.horizontal) {
      query.xl -= minSpacing;
      query.xh += minSpacing;
    } else {
      query.yl -= minSpacing;
      query.yh += minSpacing;
    }
    index.visit(query, [&](std::uint32_t id) {
      if (id < numWires) return;
      const std::size_t j = id - numWires;
      if (j <= i) return;  // each pair once, from its smaller index
      if (ax.frozenOverlap(fills[i], fills[j]) <= 0) return;
      if (maxGap(i, j) < minSpacing) out.push_back({i, j});
    });
  }
  std::sort(out.begin(), out.end());
}

}  // namespace

namespace detail {

void indexWindow(const WindowProblem& problem, Coord cellSize,
                 FillSizer::Scratch& scratch) {
  prof::ScopedTimer overlayTimer(prof::Stage::kSizerOverlay);
  const std::size_t numLayers = problem.fills.size();
  scratch.layerIndex.resize(numLayers);
  scratch.fillBase.assign(1, 0);
  for (std::size_t l = 0; l < numLayers; ++l) {
    geom::GridIndex& index = scratch.layerIndex[l];
    index.reset(problem.window, cellSize);
    std::uint32_t id = 0;
    for (const auto* shapes : {&problem.wires[l], &problem.fills[l]}) {
      for (const Rect& r : *shapes) {
        if (!r.empty()) index.insert(id, r);  // empty: never overlaps
        ++id;
      }
    }
    scratch.fillBase.push_back(scratch.fillBase.back() +
                               problem.fills[l].size());
    prof::count(prof::Counter::kIndexBuilds);
  }
  scratch.contacts.clear();
  scratch.contactStart.assign(1, 0);
  std::uint64_t queries = 0;
  for (std::size_t l = 0; l < numLayers; ++l) {
    for (const Rect& f : problem.fills[l]) {
      for (const std::size_t nb : {l - 1, l + 1}) {
        if (nb >= numLayers) continue;  // l - 1 wraps for l == 0
        ++queries;
        const auto& wires = problem.wires[nb];
        scratch.layerIndex[nb].visit(f, [&](std::uint32_t id) {
          const Rect& s = id < wires.size()
                              ? wires[id]
                              : problem.fills[nb][id - wires.size()];
          if (s.overlaps(f)) {
            scratch.contacts.push_back({static_cast<std::uint32_t>(nb), id});
          }
        });
      }
      scratch.contactStart.push_back(
          static_cast<std::uint32_t>(scratch.contacts.size()));
    }
  }
  prof::count(prof::Counter::kIndexQueries, queries);
}

EdgeMarginals edgeMarginals(const WindowProblem& problem,
                            const FillSizer::Scratch& scratch, int layer,
                            std::size_t k, bool horizontal) {
  const AxisView ax{horizontal};
  const auto l = static_cast<std::size_t>(layer);
  const Rect& f = problem.fills[l][k];
  const Coord lo = ax.lo(f);
  const Coord hi = ax.hi(f);
  const std::size_t slot = scratch.fillBase[l] + k;
  EdgeMarginals m;
  for (std::uint32_t c = scratch.contactStart[slot];
       c < scratch.contactStart[slot + 1]; ++c) {
    const auto [nb, id] = scratch.contacts[c];
    const auto& wires = problem.wires[nb];
    const bool isWire = id < wires.size();
    const Rect& s = isWire ? wires[id] : problem.fills[nb][id - wires.size()];
    const Coord overlap = ax.frozenOverlap(f, s);
    if (overlap <= 0) continue;
    if (ax.lo(s) <= lo && lo < ax.hi(s)) {
      (isWire ? m.wireLo : m.fillLo) += overlap;
    }
    if (ax.lo(s) < hi && hi <= ax.hi(s)) {
      (isWire ? m.wireHi : m.fillHi) += overlap;
    }
  }
  return m;
}

}  // namespace detail

void FillSizer::size(WindowProblem& problem, Stats* stats) const {
  Scratch scratch;
  size(problem, scratch, stats);
}

void FillSizer::size(WindowProblem& problem, Scratch& scratch,
                     Stats* stats) const {
  const int numLayers = static_cast<int>(problem.fills.size());
  detail::indexWindow(
      problem, geom::windowCellSize(problem.window, rules_.maxFillSize),
      scratch);
  scratch.pairFree.assign(2 * problem.fills.size(), 0);
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
                             const Scratch& scratch) const {
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
  std::vector<std::pair<Coord, std::size_t>> order;  // (-marginal, index)
  order.reserve(fills.size());
  {
    prof::ScopedTimer overlayTimer(prof::Stage::kSizerOverlay);
    for (std::size_t i = 0; i < fills.size(); ++i) {
      const detail::EdgeMarginals m =
          detail::edgeMarginals(problem, scratch, layer, i, true);
      order.push_back({-(m.wireHi + m.fillHi), i});
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
      const detail::EdgeMarginals m =
          detail::edgeMarginals(problem, scratch, layer, i, horizontal);
      ovLo[i] = static_cast<Coord>(
          std::llround(wf * static_cast<double>(m.wireLo) +
                       static_cast<double>(m.fillLo)));
      ovHi[i] = static_cast<Coord>(
          std::llround(wf * static_cast<double>(m.wireHi) +
                       static_cast<double>(m.fillHi)));
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
  closePairs.clear();
  const auto l = static_cast<std::size_t>(layer);
  char& pairFree = scratch.pairFree[2 * l + (horizontal ? 1 : 0)];
  if (pairFree == 0) {
    collectClosePairs(fills, problem.wires[l].size(), ax, rules_.minSpacing,
                      scratch.layerIndex[l], closePairs);
    pairFree = closePairs.empty() ? 1 : 0;
  }

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
  // the answer DifferentialLpSolver returns -- has a closed form. The SSP and
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

  auto solveRelaxation = [this](const mcf::DifferentialLp& dlp) {
    if (!options_.useLpSolver) {
      return mcf::DifferentialLpSolver(options_.backend).solve(dlp);
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
  if (stats != nullptr) ++stats->solves;

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
    // The only place a fills vector is replaced: re-index the window so
    // no contact or index id points at a moved or freed fill.
    detail::indexWindow(
        problem, geom::windowCellSize(problem.window, rules_.maxFillSize),
        scratch);
    sizeLayerDirection(problem, layer, horizontal, scratch, stats);
    return;
  }
  if (!result.feasible) return;  // keep current sizes
  applyEdges(result.x);
}

}  // namespace ofl::fill

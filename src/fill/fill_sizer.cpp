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

// w * a + b rounded to an integer. At w == 1, the default of both overlay
// weights, that is a + b exactly, so the float round trip is skipped.
Coord weightedSum(double w, Coord a, Coord b) {
  if (w == 1.0) return a + b;
  return static_cast<Coord>(std::llround(w * static_cast<double>(a) +
                                         static_cast<double>(b)));
}

// A fill pair is close in a pass when the rects overlap in the frozen
// axis and the gap in the variable axis is below minSpacing. The gap is
// the symmetric max-gap max(lo_b - hi_a, lo_a - hi_b): for non-empty
// intervals it admits a pair iff the lo-ordered oriented gap does (when
// the oriented gap is not the max, the other gap is negative, hence below
// any minSpacing >= 0), so the repair-need pass and the constraint pass
// can share one list.
bool closePair(const AxisView& ax, const Rect& a, const Rect& b,
               Coord minSpacing) {
  return ax.frozenOverlap(a, b) > 0 &&
         std::max(ax.lo(b) - ax.hi(a), ax.lo(a) - ax.hi(b)) < minSpacing;
}

}  // namespace

namespace detail {

void indexWindow(const WindowProblem& problem, Coord minSpacing,
                 FillSizer::Scratch& scratch) {
  prof::ScopedTimer contactsTimer(prof::Stage::kSizerContacts);
  const std::size_t numLayers = problem.fills.size();
  scratch.fillBase.assign(1, 0);
  for (const auto& fills : problem.fills) {
    scratch.fillBase.push_back(scratch.fillBase.back() + fills.size());
  }
  const std::size_t numSlots = scratch.fillBase.back();

  // Contacts: per adjacent layer pair, one sweep of the lower layer's
  // fills against the upper layer's wires, one of its wires against the
  // upper fills and one of fills against fills; wire pairs carry no
  // overlay term, so no sweep looks for them.
  auto& hits = scratch.hits;
  hits.clear();
  for (std::size_t l = 0; l + 1 < numLayers; ++l) {
    const auto& wiresLo = problem.wires[l];
    const auto& fillsLo = problem.fills[l];
    const auto& wiresUp = problem.wires[l + 1];
    const auto& fillsUp = problem.fills[l + 1];
    const auto slotLo = [&](std::uint32_t i) {
      return static_cast<std::uint32_t>(scratch.fillBase[l] + i);
    };
    const auto slotUp = [&](std::uint32_t j) {
      return static_cast<std::uint32_t>(scratch.fillBase[l + 1] + j);
    };
    scratch.sweep.visit(fillsLo, wiresUp,
                        [&](std::uint32_t i, std::uint32_t j) {
                          hits.push_back({slotLo(i), true, &wiresUp[j]});
                        });
    scratch.sweep.visit(wiresLo, fillsUp,
                        [&](std::uint32_t i, std::uint32_t j) {
                          hits.push_back({slotUp(j), true, &wiresLo[i]});
                        });
    scratch.sweep.visit(fillsLo, fillsUp,
                        [&](std::uint32_t i, std::uint32_t j) {
                          hits.push_back({slotLo(i), false, &fillsUp[j]});
                          hits.push_back({slotUp(j), false, &fillsLo[i]});
                        });
  }
  // Bucket the hits per fill slot: counts, inclusive prefix sums (each
  // slot's end), then placement in reverse from each end, which leaves
  // every slot's start behind and keeps each slot's hits in sweep order.
  auto& wireStart = scratch.wireStart;
  auto& fillStart = scratch.fillStart;
  wireStart.assign(numSlots + 1, 0);
  fillStart.assign(numSlots + 1, 0);
  for (const FillSizer::Scratch::Hit& h : hits) {
    ++(h.wire ? wireStart : fillStart)[h.slot];
  }
  for (std::size_t s = 1; s <= numSlots; ++s) {
    wireStart[s] += wireStart[s - 1];
    fillStart[s] += fillStart[s - 1];
  }
  scratch.wireContacts.resize(wireStart[numSlots]);
  scratch.fillContacts.resize(fillStart[numSlots]);
  for (auto h = hits.rbegin(); h != hits.rend(); ++h) {
    if (h->wire) {
      scratch.wireContacts[--wireStart[h->slot]] = *h->shape;
    } else {
      scratch.fillContacts[--fillStart[h->slot]] = h->shape;
    }
  }

  // Close pairs: one self-sweep per layer over the fills grown by half
  // the spacing rule (rounded up), so every pair with a gap below
  // minSpacing in both axes overlaps; the exact predicate then sorts the
  // overlapping pairs into the horizontal and vertical lists.
  const Coord grow = (minSpacing + 1) / 2;
  auto& grown = scratch.grown;
  scratch.closeH.resize(numLayers);
  scratch.closeV.resize(numLayers);
  for (std::size_t l = 0; l < numLayers; ++l) {
    const auto& fills = problem.fills[l];
    grown.clear();
    for (const Rect& f : fills) {
      grown.push_back(f.empty() ? f : f.expanded(grow));
    }
    auto& closeH = scratch.closeH[l];
    auto& closeV = scratch.closeV[l];
    closeH.clear();
    closeV.clear();
    scratch.sweep.visit(grown, [&](std::uint32_t i, std::uint32_t j) {
      if (closePair(AxisView{true}, fills[i], fills[j], minSpacing)) {
        closeH.push_back({i, j});
      }
      if (closePair(AxisView{false}, fills[i], fills[j], minSpacing)) {
        closeV.push_back({i, j});
      }
    });
    std::sort(closeH.begin(), closeH.end());
    std::sort(closeV.begin(), closeV.end());
  }
}

namespace {

// edgeMarginals with the pass axis fixed at compile time, so the axis
// selects fold away; branch-free, since which edges cut which shapes is
// data-dependent. frozenOverlap is clamped at 0, so a shape that does not
// overlap the fill adds nothing whichever edges it spans.
template <bool kHorizontal>
EdgeMarginals edgeMarginalsAlong(const WindowProblem& problem,
                                 const FillSizer::Scratch& scratch,
                                 std::size_t layer, std::size_t k) {
  constexpr AxisView ax{kHorizontal};
  const Rect& f = problem.fills[layer][k];
  const Coord lo = ax.lo(f);
  const Coord hi = ax.hi(f);
  const std::size_t slot = scratch.fillBase[layer] + k;
  const auto cut = [&](const Rect& s, Coord& atLo, Coord& atHi) {
    const Coord overlap = ax.frozenOverlap(f, s);
    const Coord sLo = ax.lo(s);
    const Coord sHi = ax.hi(s);
    atLo += (sLo <= lo) & (lo < sHi) ? overlap : 0;
    atHi += (sLo < hi) & (hi <= sHi) ? overlap : 0;
  };
  EdgeMarginals m;
  for (std::uint32_t c = scratch.wireStart[slot];
       c < scratch.wireStart[slot + 1]; ++c) {
    cut(scratch.wireContacts[c], m.wireLo, m.wireHi);
  }
  for (std::uint32_t c = scratch.fillStart[slot];
       c < scratch.fillStart[slot + 1]; ++c) {
    cut(*scratch.fillContacts[c], m.fillLo, m.fillHi);
  }
  return m;
}

}  // namespace

EdgeMarginals edgeMarginals(const WindowProblem& problem,
                            const FillSizer::Scratch& scratch, int layer,
                            std::size_t k, bool horizontal) {
  const auto l = static_cast<std::size_t>(layer);
  return horizontal ? edgeMarginalsAlong<true>(problem, scratch, l, k)
                    : edgeMarginalsAlong<false>(problem, scratch, l, k);
}

}  // namespace detail

void FillSizer::size(WindowProblem& problem, Stats* stats) const {
  Scratch scratch;
  size(problem, scratch, stats);
}

void FillSizer::size(WindowProblem& problem, Scratch& scratch,
                     Stats* stats) const {
  const int numLayers = static_cast<int>(problem.fills.size());
  detail::indexWindow(problem, rules_.minSpacing, scratch);
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
    prof::ScopedTimer marginalsTimer(prof::Stage::kSizerMarginals);
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
  for (std::size_t i = 0; i < n; ++i) {
    frozen[i] = ax.frozenLen(fills[i]);
    // Legal minimum extent in this axis: width rule and area rule with
    // the other axis frozen (Eqn. 12).
    minLen[i] = std::max(
        rules_.minWidth,
        static_cast<Coord>((rules_.minArea + frozen[i] - 1) / frozen[i]));
  }
  {
    prof::ScopedTimer marginalsTimer(prof::Stage::kSizerMarginals);
    // Wire overlay weighted by etaWireFactor relative to fill overlay.
    const double wf = options_.etaWireFactor;
    for (std::size_t i = 0; i < n; ++i) {
      const detail::EdgeMarginals m =
          detail::edgeMarginals(problem, scratch, layer, i, horizontal);
      ovLo[i] = weightedSum(wf, m.wireLo, m.fillLo);
      ovHi[i] = weightedSum(wf, m.wireHi, m.fillHi);
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
  // closePair): the window's candidate-time pairs still close now.
  auto& closePairs = scratch.closePairs;
  closePairs.clear();
  const auto l = static_cast<std::size_t>(layer);
  for (const auto& [i, j] : (horizontal ? scratch.closeH : scratch.closeV)[l]) {
    if (closePair(ax, fills[i], fills[j], rules_.minSpacing)) {
      closePairs.push_back({i, j});
    }
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
      return static_cast<mcf::Value>(weightedSum(options_.eta, v, 0));
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
    // no contact or close pair points at a moved or freed fill.
    detail::indexWindow(problem, rules_.minSpacing, scratch);
    sizeLayerDirection(problem, layer, horizontal, scratch, stats);
    return;
  }
  if (!result.feasible) return;  // keep current sizes
  applyEdges(result.x);
}

}  // namespace ofl::fill

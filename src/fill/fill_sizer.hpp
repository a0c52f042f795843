// Dummy fill sizing (paper Section 3.3).
//
// Starting from the candidate fills (an upper bound on fill area), each
// window is refined by SHRINKING fills to jointly reduce the density gap
// |fill area - target area| and the inter-layer overlay (Eqn. 9). The
// non-convex problem is relaxed per direction (Eqns. 10-13): with the
// vertical extents frozen, the horizontal edge coordinates form an integer
// LP with only differential constraints and box bounds (Eqn. 14), which is
// solved exactly as a dual min-cost flow (Eqns. 15-16). Directions
// alternate for `iterations` rounds; layers are visited in sequence with
// neighboring-layer geometry frozen (the linearization the paper uses for
// the overlay term, Eqn. 11). One overlap sweep per window lists each
// fill's contacts and each layer's close pairs, so a pass reads a fill's
// overlay marginals from the few shapes that touch it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fill/candidate_generator.hpp"
#include "geometry/overlap_sweep.hpp"
#include "mcf/dual_lp.hpp"

namespace ofl::fill {

class FillSizer {
 public:
  struct Options {
    double eta = 1.0;   // overlay weight in Eqn. (9); paper uses 1
    /// Extra weight on overlay with signal WIRES relative to overlay with
    /// other fills. The contest metric counts both equally (factor 1,
    /// the default), but physically fill-to-wire coupling degrades signal
    /// timing while fill-to-fill coupling is between dummies; raising the
    /// factor biases shrinking toward wire-coupled fills.
    double etaWireFactor = 1.0;
    int iterations = 2; // H+V alternation rounds
    mcf::McfBackend backend = mcf::McfBackend::kNetworkSimplex;
    /// Ablation: solve each per-direction relaxation with the dense
    /// simplex instead of dual min-cost flow (paper Section 3.3.2 vs
    /// 3.3.3). Same optima, different runtime; see bench_ablation.
    bool useLpSolver = false;
  };

  struct Stats {
    long long solves = 0;
    long long infeasibleFallbacks = 0;
    long long droppedFills = 0;
    long long spacingConstraints = 0;
    // Always 0; kept only for the benchmark's mcf.* probes, goes with them.
    long long warmStarts = 0;
    // Always 0; kept only for the benchmark's mcf.* probes, goes with them.
    long long earlyExits = 0;
    /// Solves of uncoupled passes (no spacing pair) done per fill in
    /// closed form instead of through the min-cost flow; counted in
    /// `solves` as well.
    long long closedFormSolves = 0;

    /// Merges another window's counters; the engine sizes windows in
    /// parallel into per-window Stats and reduces them in window order.
    void add(const Stats& other) {
      solves += other.solves;
      infeasibleFallbacks += other.infeasibleFallbacks;
      droppedFills += other.droppedFills;
      spacingConstraints += other.spacingConstraints;
      warmStarts += other.warmStarts;
      earlyExits += other.earlyExits;
      closedFormSolves += other.closedFormSolves;
    }
  };

  /// Reusable buffers for size(). One Scratch per worker thread; the
  /// contact and close-pair lists are rebuilt per window and per-fill
  /// buffers are overwritten pass by pass.
  struct Scratch {
    // Built once per window by detail::indexWindow from the fills at their
    // candidate rects. Fills only shrink, so a fill's contacts (the l +- 1
    // shapes overlapping its candidate rect) hold every shape its edges
    // can ever cut. Wires never move and are copied; fill contacts point
    // at the neighbour fills, which stay in place all window long (the
    // drop fallback, the one place a fills vector is replaced, rebuilds
    // the lists). Fill k of layer l owns wireContacts[wireStart[s],
    // wireStart[s + 1]) and fillContacts[fillStart[s], fillStart[s + 1])
    // for s = fillBase[l] + k.
    std::vector<std::size_t> fillBase;
    std::vector<std::uint32_t> wireStart;
    std::vector<geom::Rect> wireContacts;
    std::vector<std::uint32_t> fillStart;
    std::vector<const geom::Rect*> fillContacts;
    // Per layer, the sorted (i, j) fill pairs close in a horizontal and in
    // a vertical pass at candidate time. Shrinking only narrows overlaps
    // and widens gaps, so every pair close at pass time is in the list;
    // each pass keeps those still close in closePairs.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> closeH;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> closeV;
    std::vector<std::pair<std::size_t, std::size_t>> closePairs;
    // indexWindow work buffers: a contact found by the sweep, before it
    // is bucketed into its fill slot.
    struct Hit {
      std::uint32_t slot;
      bool wire;
      const geom::Rect* shape;
    };
    geom::OverlapSweep sweep;
    std::vector<Hit> hits;
    std::vector<geom::Rect> grown;  // fills grown for the close-pair sweep
    std::vector<geom::Coord> frozen;
    std::vector<geom::Coord> minLen;
    std::vector<geom::Coord> ovLo;
    std::vector<geom::Coord> ovHi;
    std::vector<geom::Coord> step;
    std::vector<geom::Coord> repairNeed;
    std::vector<double> weight;
    std::vector<mcf::Value> edges;  // closed-form solution, 2 per fill
  };

  FillSizer(layout::DesignRules rules, Options options)
      : rules_(rules), options_(options) {}

  /// Shrinks problem.fills in place. Fills stay DRC-legal: width/area
  /// minima are hard LP bounds and spacing violations (if any survive
  /// candidate generation) are repaired or the offending fill dropped.
  void size(WindowProblem& problem, Stats* stats = nullptr) const;

  /// Same, reusing caller-owned scratch buffers across windows (the
  /// engine keeps one Scratch per worker thread).
  void size(WindowProblem& problem, Scratch& scratch,
            Stats* stats = nullptr) const;

 private:
  void sizeLayerDirection(WindowProblem& problem, int layer, bool horizontal,
                          Scratch& scratch, Stats* stats) const;
  /// Removes the residual density surplus left by step rounding with an
  /// exact width trim, preferring fills whose trim also reduces overlay.
  void trimToTarget(WindowProblem& problem, int layer,
                    const Scratch& scratch) const;

  layout::DesignRules rules_;
  Options options_;
};

namespace detail {

/// Frozen-axis overlap of the opposing shapes each edge of a fill cuts
/// along a pass axis, split into wires and fills: raising the low edge
/// reduces overlap with shapes where lo(s) <= edge < hi(s), lowering the
/// high edge with lo(s) < edge <= hi(s).
struct EdgeMarginals {
  geom::Coord wireLo = 0;
  geom::Coord fillLo = 0;
  geom::Coord wireHi = 0;
  geom::Coord fillHi = 0;
};

/// (Re)builds the scratch's contact and close-pair lists for the current
/// rects of `problem`, spacing pairs under `minSpacing`; timed as the
/// sizer's `overlay-contacts` kernel.
void indexWindow(const WindowProblem& problem, geom::Coord minSpacing,
                 FillSizer::Scratch& scratch);

/// Marginals of fill `k` of `layer` at its current rect, from one scan of
/// its contact list.
EdgeMarginals edgeMarginals(const WindowProblem& problem,
                            const FillSizer::Scratch& scratch, int layer,
                            std::size_t k, bool horizontal);

}  // namespace detail

}  // namespace ofl::fill

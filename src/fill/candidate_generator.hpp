// Candidate fill generation (paper Section 3.2, Alg. 1).
//
// Works window-by-window. Odd layers are filled first: when the free-space
// intersection with the layer above is large enough (Case I, Fig. 4), odd-
// layer candidates come from that shared region so the subsequent even-
// layer pass can avoid them entirely (zero fill-to-fill overlay);
// otherwise (Case II, Fig. 5) candidates are ranked by area. Even layers
// rank candidates by the quality score
//     q = -overlay/area + gamma * area/windowArea          (Eqn. 8)
// against wires and the already-chosen odd-layer candidates. Each layer
// takes candidates until density reaches lambda * target (lambda >= 1).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geometry/grid_index.hpp"
#include "geometry/region.hpp"
#include "layout/design_rules.hpp"
#include "layout/litho.hpp"

namespace ofl::fill {

/// All per-window state the fill stages operate on. Built by FillEngine,
/// filled in by CandidateGenerator, resized in place by FillSizer.
struct WindowProblem {
  geom::Rect window;
  // Indexed by layer:
  std::vector<geom::Region> fillRegions;          // free space
  std::vector<std::vector<geom::Rect>> wires;     // clipped to window
  std::vector<double> wireDensity;                // dw(l)
  std::vector<double> targetDensity;              // dt(l)
  std::vector<std::vector<geom::Rect>> fills;     // candidates -> final
  /// Inflated-wire clips the fill regions were derived from (see
  /// layout::computeFillRegions): fillRegions[l] covers exactly `window`
  /// minus the union of blocked[l]. Optional — the generator's
  /// shared-region kernel uses it when present (engine-built problems)
  /// and falls back to region intersection when empty (hand-built ones).
  std::vector<std::vector<geom::Rect>> blocked;
};

class CandidateGenerator {
 public:
  struct Options {
    double lambda = 1.15;  // over-generation factor (Alg. 1, lambda >= 1)
    double gamma = 1.0;    // area reward weight in Eqn. (8)
    /// Lithography extension (paper future work): when set, slicing
    /// gutters that would land in the forbidden-pitch band are widened
    /// past it, so candidate fills never face each other at a
    /// litho-hostile gap. Best-effort: gaps across distinct free-space
    /// fragments follow the existing geometry.
    std::optional<layout::LithoRules> lithoAvoid;
    /// Industrial "fill cell" mode: slice free space into FIXED
    /// maxFillSize x maxFillSize cells (dropping remainders) instead of
    /// equal span divisions. Cells then repeat exactly, so hierarchical
    /// output (layout::toCompactGds) collapses them into AREF arrays —
    /// trading some achievable density for much smaller files.
    bool uniformCells = false;
  };

  /// Reusable buffers for generate(). One Scratch per worker thread;
  /// every field is overwritten window by window, so across a layer sweep
  /// the allocations amortize to (roughly) the largest window's needs.
  struct Scratch {
    geom::GridIndex neighborIndex;
    std::vector<geom::Rect> neighbors;
    std::vector<geom::Rect> candidates;
    std::vector<geom::Rect> blockers;
    std::vector<std::pair<double, std::size_t>> scored;
    std::vector<geom::Rect> ranked;
    // sliceRegionInto work buffers (merged sources, per-axis cell spans).
    std::vector<geom::Rect> sliceSources;
    std::vector<geom::Interval> sliceXs;
    std::vector<geom::Interval> sliceYs;
    // Case-I shared-region sweep output (unsorted; slicing sorts its own
    // merged copy) and the 3x3 spatial-selection buckets.
    std::vector<geom::Rect> sharedRects;
    std::array<std::vector<std::size_t>, 9> takeBuckets;
  };

  /// The slicing gutter after litho adjustment (minSpacing, widened out of
  /// the forbidden band when lithoAvoid is set).
  geom::Coord gutter() const;

  CandidateGenerator(layout::DesignRules rules, Options options)
      : rules_(rules), options_(options) {}

  /// Populates problem.fills for every layer.
  void generate(WindowProblem& problem) const;

  /// Same, reusing caller-owned scratch buffers across calls (the engine
  /// keeps one Scratch per worker thread).
  void generate(WindowProblem& problem, Scratch& scratch) const;

  /// Slices a free-space region into DRC-clean candidate rects: each
  /// decomposed sub-rect is inset by minSpacing/2 (so candidates from
  /// different sub-rects keep their distance) and gridded into cells of at
  /// most maxFillSize (or `maxSize` when given) with minSpacing gutters.
  /// Exposed for tests.
  std::vector<geom::Rect> sliceRegion(const geom::Region& region) const;
  std::vector<geom::Rect> sliceRegion(const geom::Region& region,
                                      geom::Coord maxSize) const;

 private:
  /// Slices a disjoint rect set (a Region's rects, or a raw sweep output —
  /// slicing sorts its own merged copy, so input order does not matter)
  /// into `out`, reusing the scratch merge/split work buffers.
  void sliceRegionInto(std::span<const geom::Rect> rects, geom::Coord maxSize,
                       std::vector<geom::Rect>& out, Scratch& scratch) const;

  layout::DesignRules rules_;
  Options options_;
};

}  // namespace ofl::fill

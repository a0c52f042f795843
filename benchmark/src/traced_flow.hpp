// The Fig. 3 fill flow rebuilt from the library's public stage calls,
// with a span around every call, for the benchmark's traced run.
//
// It follows FillEngine::run stage by stage (regions, densities, bounds,
// plan, candidates, replan, sizing, output) without a window cache or
// cancellation, so its output must be byte-identical to FillEngine::run's;
// the traced run asserts that, since otherwise the per-layer numbers would
// describe a different program.
#pragma once

#include <cstddef>

#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"

namespace ofb {

/// One stage: wall time of the stage and the summed durations of its
/// calls across workers (busy). busy / (wall * threads) is its parallel
/// efficiency.
struct StageSpan {
  double wall = 0.0;
  double busy = 0.0;
  double parEff(int threads) const {
    return wall > 0 ? busy / (wall * threads) : 0.0;
  }
};

struct TracedFlow {
  int threads = 1;
  StageSpan prep;        // stage 0 (wall only): regions + density per layer
  StageSpan regions;     // layout::computeFillRegions + bucketClipped
  StageSpan densityMap;  // DensityMap::computeFromShapes
  StageSpan bounds;      // density::computeBounds
  StageSpan candidates;  // CandidateGenerator::generate per window
  StageSpan sizing;      // FillSizer::size per window
  double planSeconds = 0.0;  // TargetDensityPlanner::plan, both rounds
  double wallSeconds = 0.0;  // whole flow
  /// Flow wall spent outside the parallel stages (plans, bound
  /// tightening, window merges): single-threaded work.
  double serialSeconds = 0.0;
  std::size_t windows = 0;
  std::size_t candidateCount = 0;
  std::size_t fillCount = 0;
  ofl::fill::FillSizer::Stats sizer;
};

/// Fills `layout` (replacing existing fills) like FillEngine(options).run.
TracedFlow runTracedFlow(ofl::layout::Layout& layout,
                         const ofl::fill::FillEngineOptions& options);

}  // namespace ofb

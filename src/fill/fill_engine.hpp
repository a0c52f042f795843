// FillEngine: the paper's end-to-end flow (Fig. 3).
//
//   initial fill regions -> density planning -> candidate generation
//   -> second density planning -> fill sizing -> output fills
//
// The engine owns the window dissection and per-window problem assembly;
// the three stages are the separately-testable TargetDensityPlanner,
// CandidateGenerator and FillSizer, sequenced for every engine by
// detail::Flow below.
#pragma once

#include <span>

#include "common/cancel.hpp"
#include "common/prof.hpp"
#include "fill/candidate_generator.hpp"
#include "fill/fill_sizer.hpp"
#include "fill/target_planner.hpp"
#include "fill/window_cache.hpp"
#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl {
class ThreadPool;
}

namespace ofl::fill {

struct FillEngineOptions {
  geom::Coord windowSize = 2000;
  layout::DesignRules rules;
  PlannerWeights plannerWeights;
  CandidateGenerator::Options candidate;
  FillSizer::Options sizer;
  /// Worker threads for the per-(layer,window) stages; 0 = one per
  /// hardware core, 1 = serial. Results are bit-identical for any value:
  /// workers fill pre-sized per-window slots and the engine merges them
  /// in window order (see docs/architecture.md, "Parallel execution").
  int numThreads = 0;
  /// Optional cooperative cancellation (batch-service timeouts). The
  /// engine polls at stage boundaries and once per window, and unwinds by
  /// throwing CancelledError, leaving `layout` in an unspecified
  /// partially-filled state. Never read unless set; a run that is not
  /// cancelled is byte-identical to one without a token.
  const CancelToken* cancel = nullptr;
  /// Telemetry-only job correlation id stamped onto every span and
  /// quality record this run emits (obs tracer, `--trace`); -1 = none.
  /// Never affects results and is excluded from the cache fingerprint,
  /// like numThreads and cancel.
  std::int64_t jobId = -1;
  /// Optional caller-owned per-window result cache (see window_cache.hpp).
  /// run() deposits per-window results and its target plans; with a
  /// populated cache, runIncremental() pins its targets to the deposited
  /// plans and serves windows whose sizing inputs are unchanged straight
  /// from the cache. run()'s own output never depends on the cache, so it
  /// is excluded from the service result-cache fingerprint (like
  /// numThreads). nullptr = off.
  WindowCache* windowCache = nullptr;
};

/// Stage seconds are wall time, each added by its stage's obs::Stage
/// probe (docs/architecture.md, "The fill pipeline").
struct FillReport {
  /// In memory: stage 0 (engine.region_prep) and both plans. Streamed:
  /// the bounds pass, its stage 0 included, and both plans. ECO: stage 0
  /// of the affected rows, the legacy freeze's density pass, and the one
  /// plan.
  double planningSeconds = 0.0;
  /// The candidate stage; streamed, the whole candidate pass, its stage 0
  /// and spooling included.
  double candidateSeconds = 0.0;
  /// The sizing stage; streamed, the whole sizing pass, its stage 0 and
  /// spooling included. ECO: candidates and sizing of every affected
  /// window (engine.refill).
  double sizingSeconds = 0.0;
  double totalSeconds = 0.0;  // the whole run; streamed, ingest to output
  std::size_t candidateCount = 0;
  std::size_t fillCount = 0;
  /// ECO runs only: affected windows served from the window cache without
  /// re-running candidate generation or sizing.
  std::size_t ecoWindowsSkipped = 0;
  int threadsUsed = 1;  // resolved thread count the run executed with
  FillSizer::Stats sizerStats;
  std::vector<double> layerTargets;  // planned td per layer (final round)
  /// Registry snapshot taken when the run finished. Empty unless the
  /// caller enabled prof collection (CLI --profile); cumulative since the
  /// caller's last Registry::reset(), so a caller timing one run must
  /// reset first.
  prof::Snapshot profile;
};

class FillEngine {
 public:
  explicit FillEngine(FillEngineOptions options) : options_(options) {}

  /// Inserts dummy fills into `layout` (replacing any existing fills).
  FillReport run(layout::Layout& layout) const;

  /// ECO (engineering change order) mode: `layout` already carries a fill
  /// solution and its wires changed only inside `changed`. Re-fills just
  /// the windows the change touches (inflated by the spacing rule);
  /// every fill outside those windows is preserved bit-exactly. Targets
  /// come one of two ways. Pinned: when options().windowCache holds the
  /// plans of a run() on this grid shape, each window's targets are that
  /// run's, clamped into its fresh bounds, and a window whose inputs did
  /// not change is served from the cache without being re-solved.
  /// Legacy (no cache, or no stored plan): the unaffected windows'
  /// densities are frozen as their bounds, so one re-plan keeps the local
  /// targets consistent with the old solution.
  FillReport runIncremental(layout::Layout& layout,
                            const geom::Rect& changed) const;

  const FillEngineOptions& options() const { return options_; }

 private:
  FillEngineOptions options_;
};

namespace detail {

/// Engine stage 0 for every (layer, window): what window problems are
/// assembled from, plus the Section 3.1 bounds the first plan sweeps.
/// Every table is indexed [layer][window]; an empty table is a kind the
/// caller did not ask prepareBand for.
struct WindowPrep {
  std::vector<std::vector<geom::Region>> fillRegions;
  std::vector<std::vector<std::vector<geom::Rect>>> wires;    // plain clips
  std::vector<std::vector<std::vector<geom::Rect>>> blocked;  // inflated
  std::vector<std::vector<double>> wireDensity;
  std::vector<density::DensityBounds> bounds;
};

/// Rects routed to a band of window rows, [layer][row - first row of the
/// band]: each holds, in input order, every wire of that layer whose
/// minSpacing-inflated extent touches the row (layout::routeRows).
using BandRects = std::vector<std::vector<std::vector<geom::Rect>>>;

/// The stage-0 row task of every engine, for the window rows
/// [firstRow, firstRow + rowRects[l].size()) of every layer: one
/// parallelFor over (layer, row) tasks. Each task buckets its row
/// (layout::bucketRow), then derives per window the fill region, the wire
/// density and the density bound. It writes only the kinds whose table in
/// `prep` is non-empty, row firstRow + r at windows
/// firstWindow + r * cols onwards; bounds read the wire densities, so
/// asking for bounds needs the wireDensity table too. Profiled as
/// region-prep (buckets, regions), density-compute and planning (bounds);
/// a call asking for the wire densities alone profiles its buckets as
/// density-compute.
/// Reads options.rules and cancel; the result is identical for any pool
/// size.
void prepareBand(const layout::WindowGrid& grid,
                 const FillEngineOptions& options, int firstRow,
                 const BandRects& rowRects, std::size_t firstWindow,
                 WindowPrep& prep, ThreadPool& pool);

/// Layer l's density in p.window with p.fills[l] placed: the candidates
/// stage 3 reads, or the final fills the quality telemetry reads.
double windowDensity(const WindowProblem& p, std::size_t l);

/// Stage 3's upper bound of window w on layer l: capped at the density
/// its candidates reach, never below its lower bound.
double tightenedUpper(const density::DensityBounds& bounds, std::size_t w,
                      const WindowProblem& p, std::size_t l);

/// Stage 0 of the window rows [firstRow, lastRow]: routes each layer's
/// wires to those rows, then runs prepareBand over them for every kind,
/// into whole-grid tables whose other rows stay default. run() asks for
/// every row, runIncremental() for the affected ones.
WindowPrep prepareWindows(const layout::Layout& layout,
                          const layout::WindowGrid& grid,
                          const FillEngineOptions& options, int firstRow,
                          int lastRow, ThreadPool& pool);

/// Stages 1-4 of Fig. 3, written once for every engine. A band is the
/// flat windows [first, first + count): run() is the one-band case,
/// runFile() runs the band steps band by band, and runIncremental() calls
/// the per-window steps from its own loop. Window work runs on `pool`
/// into per-window slots and merges serially in window order. The plan
/// steps add their seconds to `report`; the band steps leave the stage
/// seconds to their caller's probe. With options.windowCache set, the
/// band steps deposit every window's result and replan() both plans.
class Flow {
 public:
  /// `scalars` holds stage 0's wire densities and bounds of every window.
  Flow(const FillEngineOptions& options, const layout::WindowGrid& grid,
       WindowPrep& scalars, ThreadPool& pool, FillReport& report);

  /// Stage 1: sweeps the bounds, or clamps `pinnedTo` into them.
  void plan(const TargetPlan* pinnedTo = nullptr);
  /// Window w's problem from slot `slot` of `geo` (moved out) with its
  /// current target.
  WindowProblem problem(std::size_t w, WindowPrep& geo, std::size_t slot) const;
  /// Stage 2 over a band from the band-local slots of `geo`; then drops
  /// the geometry sizing does not read (and the wires unless kept).
  std::vector<WindowProblem> candidateBand(std::size_t first,
                                           std::size_t count, WindowPrep& geo,
                                           bool keepWires);
  /// Stage 3: replans on the tightened bounds.
  void replan();
  /// Stage 4 over a band: retargets, sizes and drops the wires.
  void sizingBand(std::size_t first, std::span<WindowProblem> problems);
  /// Quality telemetry of the sized bands, total seconds, prof snapshot
  /// and engine.* metrics.
  void finish(double totalSeconds);

  /// Generates p's candidates, then tightens window w's upper bounds.
  void generateWindow(WindowProblem& p, std::size_t w);
  void sizeWindow(WindowProblem& p, std::size_t w,
                  FillSizer::Stats& stats) const;

  const TargetPlan& targets() const { return plan_; }

 private:
  const FillEngineOptions& options_;
  const layout::WindowGrid& grid_;
  WindowPrep& scalars_;
  ThreadPool& pool_;
  FillReport& report_;
  const double jobId_;
  const bool telemetry_;  // metrics or tracing on
  const TargetDensityPlanner planner_;
  const CandidateGenerator generator_;
  const FillSizer sizer_;
  TargetPlan plan_;
  std::vector<std::vector<double>> finalDensity_;  // [layer][window]
  // Window-cache deposits: the stage-1 plan, then per window the
  // candidate-stage fingerprint and candidate count.
  TargetPlan candidatePlan_;
  std::vector<std::uint64_t> prefixKeys_;
  std::vector<std::size_t> candidates_;
};

}  // namespace detail

}  // namespace ofl::fill

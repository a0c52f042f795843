// FillEngine: the paper's end-to-end flow (Fig. 3).
//
//   initial fill regions -> density planning -> candidate generation
//   -> second density planning -> fill sizing -> output fills
//
// The engine owns the window dissection and per-window problem assembly;
// the three stages are the separately-testable TargetDensityPlanner,
// CandidateGenerator and FillSizer.
#pragma once

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

struct FillReport {
  double planningSeconds = 0.0;
  double candidateSeconds = 0.0;
  double sizingSeconds = 0.0;
  double totalSeconds = 0.0;
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
  /// every fill outside those windows is preserved bit-exactly, and the
  /// unaffected windows' densities are treated as frozen targets so the
  /// re-planned local targets stay consistent with the old solution.
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
/// region-prep (buckets, regions), density-compute and planning (bounds).
/// Reads options.rules and cancel; the result is identical for any pool
/// size.
void prepareBand(const layout::WindowGrid& grid,
                 const FillEngineOptions& options, int firstRow,
                 const BandRects& rowRects, std::size_t firstWindow,
                 WindowPrep& prep, ThreadPool& pool);

/// Window `w`'s candidate-stage problem: the stage-0 slot `slot` of
/// `geo` (fill region and buckets, moved out), its wire density and its
/// target in `plan`.
WindowProblem windowProblem(const layout::WindowGrid& grid, std::size_t w,
                            WindowPrep& geo, std::size_t slot,
                            const std::vector<std::vector<double>>& wireDensity,
                            const TargetPlan& plan);

/// Layer l's density in p.window with p.fills[l] placed: the candidates
/// stage 3 reads, or the final fills the quality telemetry reads.
double windowDensity(const WindowProblem& p, std::size_t l);

/// Stage 3's upper bound of window w on layer l: capped at the density
/// its candidates reach, never below its lower bound.
double tightenedUpper(const density::DensityBounds& bounds, std::size_t w,
                      const WindowProblem& p, std::size_t l);

/// Stage 0 of run() and runIncremental(): routes each layer's wires to
/// window rows, then runs prepareBand over one band holding every row and
/// every kind.
WindowPrep prepareWindows(const layout::Layout& layout,
                          const layout::WindowGrid& grid,
                          const FillEngineOptions& options, ThreadPool& pool);

}  // namespace detail

}  // namespace ofl::fill

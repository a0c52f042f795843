#include "fill/fill_engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "geometry/boolean.hpp"
#include "layout/fill_region.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

namespace ofl::fill {

namespace {

// ---- Window-cache fingerprints -----------------------------------------
//
// A window's fill result is a pure function of (a) the option fields that
// can change fills, (b) the window's geometry inputs, and (c) its
// candidate-stage and sizing-stage targets. (a)+(b)+candidate targets form
// the PREFIX key — candidate generation reads nothing else. The FINAL key
// adds the sizing-stage target goals; sizing additionally reads only the
// candidates, which the prefix already determines. Purity of (c) holds
// because the sizer's solves are canonicalized (see DifferentialLpSolver)
// and carry no state from one solve to the next.

std::uint64_t windowOptionsDigest(const FillEngineOptions& o) {
  Fnv1a64 h;
  h.i64(o.windowSize);
  h.i64(o.rules.minWidth);
  h.i64(o.rules.minSpacing);
  h.i64(o.rules.minArea);
  h.i64(o.rules.maxFillSize);
  h.f64(o.rules.maxDensity);
  h.f64(o.candidate.lambda);
  h.f64(o.candidate.gamma);
  h.boolean(o.candidate.lithoAvoid.has_value());
  if (o.candidate.lithoAvoid.has_value()) {
    h.i64(o.candidate.lithoAvoid->forbiddenLo);
    h.i64(o.candidate.lithoAvoid->forbiddenHi);
  }
  h.boolean(o.candidate.uniformCells);
  h.f64(o.sizer.eta);
  h.f64(o.sizer.etaWireFactor);
  h.i32(o.sizer.iterations);
  h.i32(static_cast<int>(o.sizer.backend));
  h.boolean(o.sizer.useLpSolver);
  return h.digest();
}

void hashRects(Fnv1a64& h, const std::vector<geom::Rect>& rects) {
  h.u64(rects.size());
  for (const geom::Rect& r : rects) {
    h.i64(r.xl);
    h.i64(r.yl);
    h.i64(r.xh);
    h.i64(r.yh);
  }
}

// Candidate-stage inputs; p.targetDensity must hold the candidate-stage
// targets when this is called.
std::uint64_t windowPrefixKey(std::uint64_t optionsDigest,
                              const WindowProblem& p) {
  Fnv1a64 h;
  h.u64(optionsDigest);
  h.i64(p.window.xl);
  h.i64(p.window.yl);
  h.i64(p.window.xh);
  h.i64(p.window.yh);
  h.u64(p.wires.size());
  for (std::size_t l = 0; l < p.wires.size(); ++l) {
    hashRects(h, p.wires[l]);
    hashRects(h, p.blocked[l]);
    hashRects(h, p.fillRegions[l].rects());
    h.f64(p.wireDensity[l]);
    h.f64(p.targetDensity[l]);
  }
  return h.digest();
}

// Full key: prefix + the sizing-stage target GOALS. Goals, not the final
// clamped values — the ECO path must derive the key before generating
// candidates, and the clamp bounds are themselves functions of the prefix
// inputs, so (prefix, goals) still determines the output.
std::uint64_t windowFinalKey(std::uint64_t prefix,
                             const std::vector<double>& sizingGoals) {
  Fnv1a64 h;
  h.u64(prefix);
  for (const double g : sizingGoals) h.f64(g);
  return h.digest();
}

}  // namespace

// Parallelization contract (docs/architecture.md, "Parallel execution"):
// every parallelFor below iterates an index space whose items are
// independent — (layer, window row) pairs in stage 0, windows in candidate
// generation and sizing. Workers only write to their own slots of
// pre-sized vectors; all cross-item reductions (candidate counts, sizer
// stats, fill output) happen sequentially in index order afterwards, so
// the result is bit-identical for any thread count.

namespace detail {

namespace {

// Row slots [first, first + cols) of layer l of a [layer][window] table;
// empty when the caller did not ask for the table.
template <class T>
std::span<T> rowSlots(std::vector<std::vector<T>>& table, std::size_t l,
                      std::size_t first, std::size_t cols) {
  if (table.empty()) return {};
  return std::span(table[l]).subspan(first, cols);
}

}  // namespace

void prepareBand(const layout::WindowGrid& grid,
                 const FillEngineOptions& options, int firstRow,
                 const BandRects& rowRects, std::size_t firstWindow,
                 WindowPrep& prep, ThreadPool& pool) {
  const std::size_t nl = rowRects.size();
  const std::size_t bandRows = nl > 0 ? rowRects[0].size() : 0;
  const auto cols = static_cast<std::size_t>(grid.cols());
  pool.parallelFor(nl * bandRows, [&](std::size_t task) {
    checkCancel(options.cancel);
    const std::size_t l = task / bandRows;
    const std::size_t r = task % bandRows;
    const int j = firstRow + static_cast<int>(r);
    const std::size_t first = firstWindow + r * cols;
    auto wires = rowSlots(prep.wires, l, first, cols);
    auto blocked = rowSlots(prep.blocked, l, first, cols);
    const auto regions = rowSlots(prep.fillRegions, l, first, cols);
    const auto density = rowSlots(prep.wireDensity, l, first, cols);
    const bool bounds = !prep.bounds.empty();
    // Buckets made for nothing but the densities are density work, as the
    // whole-layer DensityMap counts its own bucketing.
    const bool densityOnly =
        wires.empty() && blocked.empty() && regions.empty() && !bounds;
    // Kinds needed only as inputs to another kind go to worker-local
    // buffers; the free space for bounds without regions stays in sweep
    // order, since neither the area nor the erosion test reads the order.
    static thread_local std::vector<std::vector<geom::Rect>> wireBuf,
        blockedBuf, freeBuf;
    if (wires.empty() && !density.empty()) {
      wireBuf.resize(cols);
      wires = wireBuf;
    }
    if (blocked.empty() && (!regions.empty() || bounds)) {
      blockedBuf.resize(cols);
      blocked = blockedBuf;
    }
    if (regions.empty() && bounds) freeBuf.resize(cols);
    {
      prof::ScopedTimer timer(densityOnly ? prof::Stage::kDensityCompute
                                          : prof::Stage::kRegionPrep);
      layout::bucketRow(grid, options.rules, j, rowRects[l][r], wires,
                        blocked);
      for (std::size_t i = 0; i < cols; ++i) {
        const geom::Rect window = grid.windowRect(static_cast<int>(i), j);
        if (!regions.empty()) {
          regions[i] = layout::windowFillRegion(window, blocked[i]);
        } else if (bounds) {
          geom::booleanOpInto(std::span(&window, 1), blocked[i],
                              geom::BoolOp::kSubtract, freeBuf[i]);
        }
      }
    }
    if (!density.empty()) {
      prof::ScopedTimer timer(prof::Stage::kDensityCompute);
      for (std::size_t i = 0; i < cols; ++i) {
        const geom::Area area = grid.windowRect(static_cast<int>(i), j).area();
        density[i] =
            area > 0 ? static_cast<double>(geom::unionArea(wires[i])) / area
                     : 0.0;
      }
    }
    if (!bounds) return;
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    for (std::size_t i = 0; i < cols; ++i) {
      const density::WindowBound b = density::computeWindowBound(
          density[i], grid.windowRect(static_cast<int>(i), j).area(),
          regions.empty() ? std::span<const geom::Rect>(freeBuf[i])
                          : std::span<const geom::Rect>(regions[i].rects()),
          options.rules);
      prep.bounds[l].lower[first + i] = b.lower;
      prep.bounds[l].upper[first + i] = b.upper;
    }
  });
}

double windowDensity(const WindowProblem& p, std::size_t l) {
  const geom::Area windowArea = p.window.area();
  if (windowArea <= 0) return 0.0;
  geom::Area fillArea = 0;
  for (const geom::Rect& f : p.fills[l]) fillArea += f.area();
  return p.wireDensity[l] +
         static_cast<double>(fillArea) / static_cast<double>(windowArea);
}

double tightenedUpper(const density::DensityBounds& bounds, std::size_t w,
                      const WindowProblem& p, std::size_t l) {
  return std::max(std::min(bounds.upper[w], windowDensity(p, l)),
                  bounds.lower[w]);
}

WindowPrep prepareWindows(const layout::Layout& layout,
                          const layout::WindowGrid& grid,
                          const FillEngineOptions& options, int firstRow,
                          int lastRow, ThreadPool& pool) {
  const auto nl = static_cast<std::size_t>(layout.numLayers());
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  WindowPrep prep;
  prep.fillRegions.assign(nl, std::vector<geom::Region>(numWindows));
  prep.wires.assign(nl, std::vector<std::vector<geom::Rect>>(numWindows));
  prep.blocked.assign(nl, std::vector<std::vector<geom::Rect>>(numWindows));
  prep.wireDensity.assign(nl, std::vector<double>(numWindows));
  prep.bounds.assign(nl, {std::vector<double>(numWindows),
                          std::vector<double>(numWindows)});

  BandRects rowRects(nl);
  pool.parallelFor(nl, [&](std::size_t l) {
    prof::ScopedTimer timer(prof::Stage::kRegionPrep);
    rowRects[l].resize(static_cast<std::size_t>(lastRow - firstRow + 1));
    layout::routeRows(grid, options.rules,
                      layout.layer(static_cast<int>(l)).wires, firstRow,
                      rowRects[l]);
  });
  prepareBand(grid, options, firstRow, rowRects,
              static_cast<std::size_t>(firstRow) *
                  static_cast<std::size_t>(grid.cols()),
              prep, pool);
  return prep;
}

Flow::Flow(const FillEngineOptions& options, const layout::WindowGrid& grid,
           WindowPrep& scalars, ThreadPool& pool, FillReport& report)
    : options_(options),
      grid_(grid),
      scalars_(scalars),
      pool_(pool),
      report_(report),
      jobId_(static_cast<double>(options.jobId)),
      telemetry_(obs::metricsEnabled() || obs::Tracer::enabled()),
      planner_(options.plannerWeights),
      generator_(options.rules, options.candidate),
      sizer_(options.rules, options.sizer) {
  report.threadsUsed = pool.size();
}

void Flow::plan(const TargetPlan* pinnedTo) {
  obs::Stage probe("engine.planning", "engine", {{"job", jobId_}},
                   prof::Stage::kPlanning, &report_.planningSeconds);
  plan_ = pinnedTo != nullptr
              ? planner_.planPinned(*pinnedTo, scalars_.bounds)
              : planner_.plan(scalars_.bounds, grid_.cols(), grid_.rows());
}

WindowProblem Flow::problem(std::size_t w, WindowPrep& geo,
                            std::size_t slot) const {
  const auto cols = static_cast<std::size_t>(grid_.cols());
  const std::size_t nl = geo.wires.size();
  // Moves slot `slot` of each layer of `table` into `out`; a kind stage 0
  // did not produce stays empty.
  const auto take = [&](auto& table, auto& out) {
    out.reserve(table.size());
    for (auto& layer : table) out.push_back(std::move(layer[slot]));
  };
  WindowProblem p;
  p.window = grid_.windowRect(static_cast<int>(w % cols),
                              static_cast<int>(w / cols));
  take(geo.fillRegions, p.fillRegions);
  take(geo.wires, p.wires);
  take(geo.blocked, p.blocked);
  p.wireDensity.reserve(nl);
  p.targetDensity.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    p.wireDensity.push_back(scalars_.wireDensity[l][w]);
    p.targetDensity.push_back(plan_.windowTarget[l][w]);
  }
  return p;
}

void Flow::generateWindow(WindowProblem& p, std::size_t w) {
  checkCancel(options_.cancel);
  // Worker-local scratch: buffers survive across the windows this thread
  // processes, then across runs in the same process.
  static thread_local CandidateGenerator::Scratch scratch;
  {
    obs::Stage probe("window.candidates", "window",
                     {{"job", jobId_}, {"w", static_cast<double>(w)}},
                     prof::Stage::kCandidates);
    generator_.generate(p, scratch);
  }
  // Candidates cap what the window can reach: stage 3 replans on upper
  // bounds tightened to the candidate density. Each window writes only
  // its own bound slots.
  std::vector<density::DensityBounds>& bounds = scalars_.bounds;
  for (std::size_t l = 0; l < bounds.size(); ++l) {
    bounds[l].upper[w] = tightenedUpper(bounds[l], w, p, l);
  }
}

void Flow::sizeWindow(WindowProblem& p, std::size_t w,
                      FillSizer::Stats& stats) const {
  checkCancel(options_.cancel);
  static thread_local FillSizer::Scratch scratch;
  obs::Stage probe("window.sizing", "window",
                   {{"job", jobId_}, {"w", static_cast<double>(w)}},
                   prof::Stage::kSizing);
  sizer_.size(p, scratch, &stats);
}

std::vector<WindowProblem> Flow::candidateBand(std::size_t first,
                                               std::size_t count,
                                               WindowPrep& geo,
                                               bool keepWires) {
  prof::count(prof::Counter::kWindows, count);
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("engine.windows").add(count);
  }
  WindowCache* const cache = options_.windowCache;
  const std::uint64_t optionsDigest =
      cache != nullptr ? windowOptionsDigest(options_) : 0;
  if (cache != nullptr && prefixKeys_.empty()) {
    candidatePlan_ = plan_;  // the ECO path pins its candidate targets to it
    prefixKeys_.resize(static_cast<std::size_t>(grid_.windowCount()));
    candidates_.resize(prefixKeys_.size());
  }
  std::vector<WindowProblem> problems(count);
  pool_.parallelFor(count, [&](std::size_t b) {
    const std::size_t w = first + b;
    WindowProblem& p = problems[b];
    p = problem(w, geo, b);
    generateWindow(p, w);
    if (cache != nullptr) {
      // Generation only wrote p.fills, so the window still holds the
      // candidate-stage inputs.
      prefixKeys_[w] = windowPrefixKey(optionsDigest, p);
      for (const auto& layerFills : p.fills) {
        candidates_[w] += layerFills.size();
      }
    }
    p.fillRegions = {};
    p.blocked = {};
    if (!keepWires) p.wires = {};
  });
  for (const WindowProblem& p : problems) {
    for (const auto& layerFills : p.fills) {
      report_.candidateCount += layerFills.size();
    }
  }
  return problems;
}

void Flow::replan() {
  checkCancel(options_.cancel);
  {
    obs::Stage probe("engine.replanning", "engine", {{"job", jobId_}},
                     prof::Stage::kPlanning, &report_.planningSeconds);
    plan_ = planner_.plan(scalars_.bounds, grid_.cols(), grid_.rows());
  }
  report_.layerTargets = plan_.layerTarget;
  if (options_.windowCache != nullptr) {
    options_.windowCache->storePlan(
        {grid_.cols(), grid_.rows(),
         static_cast<int>(scalars_.wireDensity.size()), candidatePlan_, plan_});
  }
}

void Flow::sizingBand(std::size_t first, std::span<WindowProblem> problems) {
  const std::size_t nl = scalars_.wireDensity.size();
  std::vector<FillSizer::Stats> stats(problems.size());
  pool_.parallelFor(problems.size(), [&](std::size_t b) {
    const std::size_t w = first + b;
    WindowProblem& p = problems[b];
    for (std::size_t l = 0; l < nl; ++l) {
      p.targetDensity[l] = plan_.windowTarget[l][w];
    }
    sizeWindow(p, w, stats[b]);
    p.wires = {};
    // The final key adds the sizing-stage targets to the prefix.
    if (options_.windowCache != nullptr) {
      options_.windowCache->insert(
          windowFinalKey(prefixKeys_[w], p.targetDensity),
          WindowCache::Entry{p.fills, candidates_[w]});
    }
  });
  if (telemetry_ && finalDensity_.empty()) {
    finalDensity_.assign(
        nl, std::vector<double>(static_cast<std::size_t>(grid_.windowCount())));
  }
  for (std::size_t b = 0; b < problems.size(); ++b) {
    const WindowProblem& p = problems[b];
    report_.sizerStats.add(stats[b]);
    for (std::size_t l = 0; l < nl; ++l) {
      report_.fillCount += p.fills[l].size();
      if (telemetry_) finalDensity_[l][first + b] = windowDensity(p, l);
    }
  }
}

void Flow::finish(double totalSeconds) {
  // Quality telemetry: final per-window density and its gap to the sizing
  // target, then the layer's density metrics; pure observation, never
  // part of the result.
  for (std::size_t l = 0; l < finalDensity_.size(); ++l) {
    const auto layer = static_cast<int>(l) + 1;
    for (std::size_t w = 0; w < finalDensity_[l].size(); ++w) {
      const double d = finalDensity_[l][w];
      obs::recordWindowQuality(layer, d,
                               std::abs(d - plan_.windowTarget[l][w]));
    }
    const density::DensityMetrics m = density::computeMetrics(
        density::DensityMap(grid_.cols(), grid_.rows(), finalDensity_[l]));
    obs::recordLayerQuality(layer, m.mean, m.sigma, m.lineHotspot,
                            m.outlierHotspot, options_.jobId);
  }
  report_.totalSeconds = totalSeconds;
  report_.profile = prof::Registry::instance().snapshot();
  if (!obs::metricsEnabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.counter("engine.runs").add();
  reg.counter("engine.candidates").add(report_.candidateCount);
  reg.counter("engine.fills").add(report_.fillCount);
  reg.counter("engine.sizer_closed_form_solves")
      .add(static_cast<std::uint64_t>(report_.sizerStats.closedFormSolves));
  reg.counter("engine.eco_windows_skipped").add(report_.ecoWindowsSkipped);
  reg.histogram("engine.run_seconds").observe(report_.totalSeconds);
}

}  // namespace detail

FillReport FillEngine::run(layout::Layout& layout) const {
  FillReport report;
  Timer total;
  const double jid = static_cast<double>(options_.jobId);
  obs::ScopedSpan runSpan("engine.run", "engine", {{"job", jid}});
  checkCancel(options_.cancel);
  layout.clearFills();

  const int numLayers = layout.numLayers();
  const layout::WindowGrid grid(layout.die(), options_.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  ThreadPool pool(options_.numThreads);

  // Stage 0 over every window; stages 1-4 as the one-band case of the
  // shared flow, whose band is the whole window table.
  detail::WindowPrep prep;
  {
    obs::Stage probe("engine.region_prep", "engine", {{"job", jid}},
                     &report.planningSeconds);
    prep = detail::prepareWindows(layout, grid, options_, 0, grid.rows() - 1,
                                  pool);
  }
  detail::Flow flow(options_, grid, prep, pool, report);
  flow.plan();

  std::vector<WindowProblem> problems;
  {
    obs::Stage probe("engine.candidates", "engine", {{"job", jid}},
                     &report.candidateSeconds);
    problems = flow.candidateBand(0, numWindows, prep, /*keepWires=*/true);
  }
  flow.replan();
  {
    obs::Stage probe("engine.sizing", "engine", {{"job", jid}},
                     &report.sizingSeconds);
    flow.sizingBand(0, problems);
  }

  {
    obs::Stage probe("engine.output", "engine", {{"job", jid}},
                     prof::Stage::kOutput);
    for (const WindowProblem& p : problems) {
      for (int l = 0; l < numLayers; ++l) {
        auto& out = layout.layer(l).fills;
        const auto& fs = p.fills[static_cast<std::size_t>(l)];
        out.insert(out.end(), fs.begin(), fs.end());
      }
    }
  }
  flow.finish(total.elapsedSeconds());
  logInfo("FillEngine: %zu fills from %zu candidates in %.2fs "
          "(plan %.2fs, cand %.2fs, size %.2fs, %d threads)",
          report.fillCount, report.candidateCount, report.totalSeconds,
          report.planningSeconds, report.candidateSeconds,
          report.sizingSeconds, report.threadsUsed);
  return report;
}

FillReport FillEngine::runIncremental(layout::Layout& layout,
                                      const geom::Rect& changed) const {
  FillReport report;
  Timer total;
  const double jid = static_cast<double>(options_.jobId);
  obs::ScopedSpan runSpan("engine.eco", "engine", {{"job", jid}});
  checkCancel(options_.cancel);
  const int numLayers = layout.numLayers();
  const layout::WindowGrid grid(layout.die(), options_.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  ThreadPool pool(options_.numThreads);

  // Affected windows: everything the changed area (inflated by the
  // spacing rule, since a moved wire blocks space across a window border)
  // touches, the window rectangle [i0, i1] x [j0, j1].
  int i0, j0, i1, j1;
  grid.windowRange(changed.expanded(options_.rules.minSpacing), i0, j0, i1,
                   j1);
  std::vector<char> affected(numWindows, 0);
  for (int j = j0; j <= j1; ++j) {
    for (int i = i0; i <= i1; ++i) {
      affected[static_cast<std::size_t>(grid.flatIndex(i, j))] = 1;
    }
  }

  // Drop the old fills of affected windows (a fill belongs to exactly one
  // window by construction).
  for (int l = 0; l < numLayers; ++l) {
    auto& fills = layout.layer(l).fills;
    fills.erase(std::remove_if(fills.begin(), fills.end(),
                               [&](const geom::Rect& f) {
                                 int fi0, fj0, fi1, fj1;
                                 grid.windowRange(f, fi0, fj0, fi1, fj1);
                                 return affected[static_cast<std::size_t>(
                                     grid.flatIndex(fi0, fj0))] != 0;
                               }),
                fills.end());
  }

  // Pinned-target mode: when the attached window cache carries the target
  // plans of a full run() on this exact grid shape, pin the ECO targets to
  // those plans (clamped into fresh wire-only bounds) instead of
  // re-sweeping. Windows whose sizing inputs are unchanged then reproduce
  // the depositing run's fingerprints byte-for-byte and are served from
  // the cache without re-running candidate generation or sizing.
  WindowCache* const cache = options_.windowCache;
  WindowCache::StoredPlan stored;
  const bool pinned =
      cache != nullptr &&
      cache->getPlan(grid.cols(), grid.rows(), numLayers, stored);

  // Stage 0 on the affected rows only. Only affected windows' slots are
  // read after planning, and pinned planning clamps the other windows'
  // targets into bounds no later step reads.
  const auto nl = static_cast<std::size_t>(numLayers);
  detail::WindowPrep prep;
  {
    obs::Stage probe("engine.region_prep", "engine", {{"job", jid}},
                     &report.planningSeconds);
    prep = detail::prepareWindows(layout, grid, options_, j0, j1, pool);
    // Legacy mode plans with unaffected windows frozen at their current
    // density: their lower and upper bounds collapse to the as-filled
    // value, so the target sweep can only adapt the affected windows. The
    // as-filled densities are one density-only stage-0 pass over every
    // row, fed each layer's wires and then its remaining fills; like the
    // whole-layer DensityMap it replaces, it is profiled as
    // density-compute.
    // Pinned mode keeps fresh wire-only bounds: the pinned plan clamps the
    // stored targets into them exactly as the depositing run did, so
    // unchanged-wire windows reproduce its targets bit-for-bit. No
    // as-filled freeze is needed — targets are not re-swept here, so they
    // cannot drift.
    if (!pinned) {
      detail::WindowPrep asFilled;
      asFilled.wireDensity.assign(nl, std::vector<double>(numWindows));
      detail::BandRects rows(nl);
      pool.parallelFor(nl, [&](std::size_t l) {
        prof::ScopedTimer timer(prof::Stage::kDensityCompute);
        const layout::Layer& layer = layout.layer(static_cast<int>(l));
        rows[l].resize(static_cast<std::size_t>(grid.rows()));
        layout::routeRows(grid, options_.rules, layer.wires, 0, rows[l]);
        layout::routeRows(grid, options_.rules, layer.fills, 0, rows[l]);
      });
      detail::prepareBand(grid, options_, 0, rows, 0, asFilled, pool);
      for (std::size_t l = 0; l < nl; ++l) {
        for (std::size_t w = 0; w < numWindows; ++w) {
          if (affected[w] != 0) continue;
          const double d = asFilled.wireDensity[l][w];
          prep.bounds[l].lower[w] = d;
          prep.bounds[l].upper[w] = d;
        }
      }
    }
  }
  // Pinned mode plans CANDIDATE targets from the stored stage-1 plan; the
  // sizing targets are re-derived per affected window below, mirroring
  // run()'s stage-3 per-window arithmetic. Legacy mode keeps the single
  // frozen-bounds sweep for both roles.
  detail::Flow flow(options_, grid, prep, pool, report);
  flow.plan(pinned ? &stored.candidate : nullptr);
  report.layerTargets =
      pinned ? stored.sizing.layerTarget : flow.targets().layerTarget;

  // Candidate generation + sizing for affected windows only: solve each
  // affected window into its own slot, then merge in window order.
  {
    obs::Stage probe("engine.refill", "engine", {{"job", jid}},
                     &report.sizingSeconds);
    std::vector<std::size_t> affectedIndices;
    for (std::size_t w = 0; w < numWindows; ++w) {
      if (affected[w] != 0) affectedIndices.push_back(w);
    }
    const std::uint64_t optionsDigest =
        pinned ? windowOptionsDigest(options_) : 0;
    std::vector<WindowProblem> problems(affectedIndices.size());
    std::vector<FillSizer::Stats> windowStats(affectedIndices.size());
    std::vector<char> served(affectedIndices.size(), 0);
    pool.parallelFor(affectedIndices.size(), [&](std::size_t a) {
      checkCancel(options_.cancel);
      const std::size_t w = affectedIndices[a];
      WindowProblem& p = problems[a];
      p = flow.problem(w, prep, w);
      obs::ScopedSpan windowSpan("window.refill", "window",
                                 {{"job", jid}, {"w", static_cast<double>(w)}});
      std::uint64_t key = 0;
      if (pinned) {
        // Content-addressed lookup: prefix over the candidate-stage inputs
        // just assembled, final key adding the stored sizing-target goals
        // (raw, pre-clamp — the same values the depositing run keyed with).
        const std::uint64_t prefix = windowPrefixKey(optionsDigest, p);
        std::vector<double> goals(static_cast<std::size_t>(numLayers));
        for (int l = 0; l < numLayers; ++l) {
          goals[static_cast<std::size_t>(l)] =
              stored.sizing.windowTarget[static_cast<std::size_t>(l)][w];
        }
        key = windowFinalKey(prefix, goals);
        WindowCache::Entry entry;
        if (cache->lookup(key, entry)) {
          p.fills = std::move(entry.fills);
          served[a] = 1;
          return;
        }
      }
      flow.generateWindow(p, w);
      std::size_t candidates = 0;
      if (pinned) {
        // Re-derive this window's sizing targets exactly as run()'s stage 3
        // does: clamp the stored goal into the band generateWindow just
        // tightened to the achieved candidate density.
        for (const auto& layerFills : p.fills) candidates += layerFills.size();
        for (std::size_t l = 0; l < prep.bounds.size(); ++l) {
          p.targetDensity[l] =
              std::clamp(stored.sizing.windowTarget[l][w],
                         prep.bounds[l].lower[w], prep.bounds[l].upper[w]);
        }
      }
      flow.sizeWindow(p, w, windowStats[a]);
      if (pinned) cache->insert(key, WindowCache::Entry{p.fills, candidates});
    });
    for (std::size_t a = 0; a < problems.size(); ++a) {
      const WindowProblem& p = problems[a];
      if (served[a] != 0) {
        ++report.ecoWindowsSkipped;
      } else {
        for (const auto& layerFills : p.fills) {
          report.candidateCount += layerFills.size();
        }
        report.sizerStats.add(windowStats[a]);
      }
      for (int l = 0; l < numLayers; ++l) {
        auto& out = layout.layer(l).fills;
        const auto& fs = p.fills[static_cast<std::size_t>(l)];
        out.insert(out.end(), fs.begin(), fs.end());
      }
    }
  }
  prof::count(prof::Counter::kEcoWindowsSkipped, report.ecoWindowsSkipped);
  report.fillCount = layout.fillCount();
  flow.finish(total.elapsedSeconds());
  logInfo("FillEngine ECO: refilled affected windows in %.3fs (%zu fills)",
          report.totalSeconds, report.fillCount);
  return report;
}

}  // namespace ofl::fill

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

// Cancellation checkpoint: no-op without a token. Called at stage
// boundaries and at the top of each per-window work item; a worker that
// throws CancelledError aborts the parallelFor (remaining indices are
// abandoned) and the pool rethrows it on the caller.
inline void checkCancel(const CancelToken* token) {
  if (token != nullptr) token->throwIfExpired();
}

// Quality-telemetry channel: final per-window density and planned-target
// gap per layer, computed from the solved window problems (wire density +
// fill area / window area — the same arithmetic the second planning round
// uses, so no extra geometry passes). Gated: runs only when metrics or
// tracing collection is on; pure observation, never part of the result.
void recordQualityTelemetry(const layout::WindowGrid& grid,
                            const std::vector<WindowProblem>& problems,
                            int numLayers, std::int64_t jobId) {
  if (!obs::metricsEnabled() && !obs::Tracer::enabled()) return;
  const auto numWindows = problems.size();
  std::vector<double> values(numWindows);
  for (int l = 0; l < numLayers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    for (std::size_t w = 0; w < numWindows; ++w) {
      const WindowProblem& p = problems[w];
      const double d = detail::windowDensity(p, li);
      values[w] = d;
      obs::recordWindowQuality(l + 1, d, std::abs(d - p.targetDensity[li]));
    }
    const density::DensityMap map(grid.cols(), grid.rows(), values);
    const density::DensityMetrics m = density::computeMetrics(map);
    obs::recordLayerQuality(l + 1, m.mean, m.sigma, m.lineHotspot,
                            m.outlierHotspot, jobId);
  }
}

// Engine-level throughput metrics shared by run() and runIncremental().
void recordRunMetrics(const FillReport& report) {
  if (!obs::metricsEnabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.counter("engine.runs").add();
  reg.counter("engine.candidates").add(report.candidateCount);
  reg.counter("engine.fills").add(report.fillCount);
  reg.counter("engine.mcf_warm_starts")
      .add(static_cast<std::uint64_t>(report.sizerStats.warmStarts));
  reg.counter("engine.mcf_early_exits")
      .add(static_cast<std::uint64_t>(report.sizerStats.earlyExits));
  reg.counter("engine.sizer_closed_form_solves")
      .add(static_cast<std::uint64_t>(report.sizerStats.closedFormSolves));
  reg.counter("engine.eco_windows_skipped").add(report.ecoWindowsSkipped);
  reg.histogram("engine.run_seconds").observe(report.totalSeconds);
}

// ---- Window-cache fingerprints -----------------------------------------
//
// A window's fill result is a pure function of (a) the option fields that
// can change fills, (b) the window's geometry inputs, and (c) its
// candidate-stage and sizing-stage targets. (a)+(b)+candidate targets form
// the PREFIX key — candidate generation reads nothing else. The FINAL key
// adds the sizing-stage target goals; sizing additionally reads only the
// candidates, which the prefix already determines. Purity of (c) holds
// because the sizer's solves are canonicalized (see DualMcfContext), so
// no solver history can leak into the output.

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
      prof::ScopedTimer timer(prof::Stage::kRegionPrep);
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

WindowProblem windowProblem(const layout::WindowGrid& grid, std::size_t w,
                            WindowPrep& geo, std::size_t slot,
                            const std::vector<std::vector<double>>& wireDensity,
                            const TargetPlan& plan) {
  const auto cols = static_cast<std::size_t>(grid.cols());
  const std::size_t nl = geo.wires.size();
  WindowProblem p;
  p.window = grid.windowRect(static_cast<int>(w % cols),
                             static_cast<int>(w / cols));
  p.fillRegions.reserve(nl);
  p.wires.reserve(nl);
  p.blocked.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    p.fillRegions.push_back(std::move(geo.fillRegions[l][slot]));
    p.wires.push_back(std::move(geo.wires[l][slot]));
    p.blocked.push_back(std::move(geo.blocked[l][slot]));
    p.wireDensity.push_back(wireDensity[l][w]);
    p.targetDensity.push_back(plan.windowTarget[l][w]);
  }
  return p;
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
                          const FillEngineOptions& options, ThreadPool& pool) {
  obs::ScopedSpan span("engine.region_prep", "engine",
                       {{"job", static_cast<double>(options.jobId)}});
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
    rowRects[l] = layout::routeRows(grid, options.rules,
                                    layout.layer(static_cast<int>(l)).wires);
  });
  prepareBand(grid, options, 0, rowRects, 0, prep, pool);
  return prep;
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
  report.threadsUsed = pool.size();

  // --- Stage 0: wire buckets, fill regions, wire densities, bounds ---
  Timer stage;
  detail::WindowPrep prep =
      detail::prepareWindows(layout, grid, options_, pool);
  std::vector<density::DensityBounds>& bounds = prep.bounds;

  // --- Stage 1: density planning on the geometric bounds (Section 3.1) ---
  const TargetDensityPlanner planner(options_.plannerWeights);
  TargetPlan plan;
  {
    obs::ScopedSpan span("engine.planning", "engine", {{"job", jid}});
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    plan = planner.plan(bounds, grid.cols(), grid.rows());
  }
  report.planningSeconds += stage.elapsedSeconds();

  // With a window cache attached, remember the stage-1 plan (the ECO path
  // pins its candidate targets to it) and fingerprint each window as it is
  // assembled so the sizing results can be deposited afterwards.
  WindowCache* const cache = options_.windowCache;
  TargetPlan candidatePlan;
  if (cache != nullptr) candidatePlan = plan;
  const std::uint64_t optionsDigest =
      cache != nullptr ? windowOptionsDigest(options_) : 0;
  std::vector<std::uint64_t> prefixKeys(cache != nullptr ? numWindows : 0);
  std::vector<std::size_t> windowCandidates(cache != nullptr ? numWindows : 0);

  // --- Stage 2: per-window candidate generation (Section 3.2) ---
  stage.reset();
  std::vector<WindowProblem> problems(numWindows);
  const CandidateGenerator generator(options_.rules, options_.candidate);
  prof::count(prof::Counter::kWindows, numWindows);
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("engine.windows").add(numWindows);
  }
  {
    obs::ScopedSpan span("engine.candidates", "engine", {{"job", jid}});
    pool.parallelFor(numWindows, [&](std::size_t w) {
      checkCancel(options_.cancel);
      WindowProblem& p = problems[w];
      p = detail::windowProblem(grid, w, prep, w, prep.wireDensity, plan);
      if (cache != nullptr) prefixKeys[w] = windowPrefixKey(optionsDigest, p);
      // Worker-local scratch: buffers survive across the windows this
      // thread processes, then across runs in the same process.
      static thread_local CandidateGenerator::Scratch scratch;
      prof::ScopedTimer timer(prof::Stage::kCandidates);
      obs::ScopedSpan windowSpan(
          "window.candidates", "window",
          {{"job", jid}, {"w", static_cast<double>(w)}});
      generator.generate(p, scratch);
    });
  }
  for (std::size_t w = 0; w < numWindows; ++w) {
    std::size_t count = 0;
    for (const auto& layerFills : problems[w].fills) count += layerFills.size();
    report.candidateCount += count;
    if (cache != nullptr) windowCandidates[w] = count;
  }
  report.candidateSeconds += stage.elapsedSeconds();

  checkCancel(options_.cancel);

  // --- Stage 3: second density planning (Fig. 3) ---
  // Candidates cap what each window can actually reach; tighten the upper
  // bounds to the achieved candidate density and re-plan so the sizing
  // targets are consistent.
  stage.reset();
  for (std::size_t l = 0; l < bounds.size(); ++l) {
    for (std::size_t w = 0; w < numWindows; ++w) {
      bounds[l].upper[w] = detail::tightenedUpper(bounds[l], w, problems[w], l);
    }
  }
  {
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    obs::ScopedSpan span("engine.replanning", "engine", {{"job", jid}});
    plan = planner.plan(bounds, grid.cols(), grid.rows());
  }
  for (std::size_t w = 0; w < numWindows; ++w) {
    for (int l = 0; l < numLayers; ++l) {
      problems[w].targetDensity[static_cast<std::size_t>(l)] =
          plan.windowTarget[static_cast<std::size_t>(l)][w];
    }
  }
  report.layerTargets = plan.layerTarget;
  report.planningSeconds += stage.elapsedSeconds();

  // --- Stage 4: fill sizing (Section 3.3) ---
  stage.reset();
  const FillSizer sizer(options_.rules, options_.sizer);
  std::vector<FillSizer::Stats> windowStats(numWindows);
  {
    obs::ScopedSpan span("engine.sizing", "engine", {{"job", jid}});
    pool.parallelFor(numWindows, [&](std::size_t w) {
      checkCancel(options_.cancel);
      static thread_local FillSizer::Scratch scratch;
      prof::ScopedTimer timer(prof::Stage::kSizing);
      obs::ScopedSpan windowSpan(
          "window.sizing", "window",
          {{"job", jid}, {"w", static_cast<double>(w)}});
      sizer.size(problems[w], scratch, &windowStats[w]);
    });
  }
  for (const FillSizer::Stats& s : windowStats) report.sizerStats.add(s);
  report.sizingSeconds += stage.elapsedSeconds();

  // Deposit every window's solved fills and both target plans; the final
  // key adds the sizing-stage targets (p.targetDensity holds the stage-3
  // replan values by now) on top of the candidate-stage prefix.
  if (cache != nullptr) {
    for (std::size_t w = 0; w < numWindows; ++w) {
      const WindowProblem& p = problems[w];
      cache->insert(windowFinalKey(prefixKeys[w], p.targetDensity),
                    WindowCache::Entry{p.fills, windowCandidates[w]});
    }
    cache->storePlan(
        {grid.cols(), grid.rows(), numLayers, candidatePlan, plan});
  }

  // --- Output ---
  {
    prof::ScopedTimer timer(prof::Stage::kOutput);
    obs::ScopedSpan span("engine.output", "engine", {{"job", jid}});
    for (const WindowProblem& p : problems) {
      for (int l = 0; l < numLayers; ++l) {
        auto& out = layout.layer(l).fills;
        const auto& fs = p.fills[static_cast<std::size_t>(l)];
        out.insert(out.end(), fs.begin(), fs.end());
      }
    }
  }
  recordQualityTelemetry(grid, problems, numLayers, options_.jobId);
  report.fillCount = layout.fillCount();
  report.totalSeconds = total.elapsedSeconds();
  report.profile = prof::Registry::instance().snapshot();
  recordRunMetrics(report);
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
  report.threadsUsed = pool.size();

  // Affected windows: everything the changed area (inflated by the
  // spacing rule, since a moved wire blocks space across a window border)
  // touches.
  std::vector<char> affected(numWindows, 0);
  {
    int i0, j0, i1, j1;
    grid.windowRange(changed.expanded(options_.rules.minSpacing), i0, j0, i1,
                     j1);
    for (int j = j0; j <= j1; ++j) {
      for (int i = i0; i <= i1; ++i) {
        affected[static_cast<std::size_t>(grid.flatIndex(i, j))] = 1;
      }
    }
  }

  // Drop the old fills of affected windows (a fill belongs to exactly one
  // window by construction).
  for (int l = 0; l < numLayers; ++l) {
    auto& fills = layout.layer(l).fills;
    fills.erase(std::remove_if(fills.begin(), fills.end(),
                               [&](const geom::Rect& f) {
                                 int i0, j0, i1, j1;
                                 grid.windowRange(f, i0, j0, i1, j1);
                                 return affected[static_cast<std::size_t>(
                                     grid.flatIndex(i0, j0))] != 0;
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

  // Stage 0 runs over every window (the bounds need them all), but only
  // affected windows' buckets and regions are read after planning.
  Timer stage;
  detail::WindowPrep prep =
      detail::prepareWindows(layout, grid, options_, pool);
  std::vector<density::DensityBounds>& bounds = prep.bounds;
  // Legacy mode plans with unaffected windows frozen at their current
  // density: their lower and upper bounds collapse to the as-filled value,
  // so the target sweep can only adapt the affected windows. Pinned mode
  // keeps fresh wire-only bounds everywhere: the pinned plan clamps the
  // stored targets into them exactly as the depositing run did, so
  // unchanged-wire windows reproduce its targets bit-for-bit. No as-filled
  // freeze is needed — targets are not re-swept here, so they cannot drift.
  if (!pinned) {
    std::vector<density::DensityMap> current(bounds.size());
    pool.parallelFor(current.size(), [&](std::size_t l) {
      prof::ScopedTimer timer(prof::Stage::kDensityCompute);
      current[l] =
          density::DensityMap::compute(layout, static_cast<int>(l), grid);
    });
    for (std::size_t l = 0; l < bounds.size(); ++l) {
      for (std::size_t w = 0; w < numWindows; ++w) {
        if (affected[w] != 0) continue;
        const double d = current[l].values()[w];
        bounds[l].lower[w] = d;
        bounds[l].upper[w] = d;
      }
    }
  }
  const TargetDensityPlanner planner(options_.plannerWeights);
  // Pinned mode plans CANDIDATE targets from the stored stage-1 plan; the
  // sizing targets are re-derived per affected window below, mirroring
  // run()'s stage-3 per-window arithmetic. Legacy mode keeps the single
  // frozen-bounds sweep for both roles.
  const TargetPlan plan = [&] {
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    return pinned ? planner.planPinned(stored.candidate, bounds)
                  : planner.plan(bounds, grid.cols(), grid.rows());
  }();
  report.layerTargets = pinned ? stored.sizing.layerTarget : plan.layerTarget;
  report.planningSeconds += stage.elapsedSeconds();

  // Candidate generation + sizing for affected windows only: solve each
  // affected window into its own slot, then merge in window order.
  stage.reset();
  std::vector<std::size_t> affectedIndices;
  for (std::size_t w = 0; w < numWindows; ++w) {
    if (affected[w] != 0) affectedIndices.push_back(w);
  }
  const CandidateGenerator generator(options_.rules, options_.candidate);
  const FillSizer sizer(options_.rules, options_.sizer);
  const std::uint64_t optionsDigest =
      pinned ? windowOptionsDigest(options_) : 0;
  std::vector<WindowProblem> problems(affectedIndices.size());
  std::vector<FillSizer::Stats> windowStats(affectedIndices.size());
  std::vector<char> served(affectedIndices.size(), 0);
  pool.parallelFor(affectedIndices.size(), [&](std::size_t a) {
    checkCancel(options_.cancel);
    const std::size_t w = affectedIndices[a];
    WindowProblem& p = problems[a];
    p = detail::windowProblem(grid, w, prep, w, prep.wireDensity, plan);
    static thread_local CandidateGenerator::Scratch generatorScratch;
    static thread_local FillSizer::Scratch sizerScratch;
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
    {
      prof::ScopedTimer timer(prof::Stage::kCandidates);
      generator.generate(p, generatorScratch);
    }
    std::size_t candidates = 0;
    if (pinned) {
      // Re-derive this window's sizing targets exactly as run()'s stage 3
      // does: tighten the upper bound to the achieved candidate density,
      // then clamp the stored goal into the tightened band.
      for (const auto& layerFills : p.fills) candidates += layerFills.size();
      for (std::size_t l = 0; l < bounds.size(); ++l) {
        p.targetDensity[l] = std::clamp(
            stored.sizing.windowTarget[l][w], bounds[l].lower[w],
            detail::tightenedUpper(bounds[l], w, p, l));
      }
    }
    {
      prof::ScopedTimer timer(prof::Stage::kSizing);
      sizer.size(p, sizerScratch, &windowStats[a]);
    }
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
  prof::count(prof::Counter::kEcoWindowsSkipped, report.ecoWindowsSkipped);
  report.sizingSeconds += stage.elapsedSeconds();
  report.fillCount = layout.fillCount();
  report.totalSeconds = total.elapsedSeconds();
  report.profile = prof::Registry::instance().snapshot();
  recordRunMetrics(report);
  logInfo("FillEngine ECO: refilled affected windows in %.3fs (%zu fills)",
          report.totalSeconds, report.fillCount);
  return report;
}

}  // namespace ofl::fill

#include "traced_flow.hpp"

#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "layout/fill_region.hpp"
#include "layout/window_grid.hpp"

namespace ofb {

namespace {

using ofl::geom::Rect;

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

TracedFlow runTracedFlow(ofl::layout::Layout& layout,
                         const ofl::fill::FillEngineOptions& options) {
  using namespace ofl;
  TracedFlow t;
  Stopwatch total;
  layout.clearFills();

  const int numLayers = layout.numLayers();
  const auto layers = static_cast<std::size_t>(numLayers);
  const layout::WindowGrid grid(layout.die(), options.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  ThreadPool pool(options.numThreads);
  t.threads = pool.size();
  t.windows = numWindows;

  // Stage 0: fill regions, wire buckets, wire densities (per layer).
  std::vector<std::vector<geom::Region>> fillRegions(layers);
  std::vector<std::vector<std::vector<Rect>>> blockedBuckets(layers);
  std::vector<std::vector<std::vector<Rect>>> wireBuckets(layers);
  std::vector<density::DensityMap> wireDensity(layers);
  std::vector<double> regionBusy(layers), densityBusy(layers);
  {
    Stopwatch stage;
    pool.parallelFor(layers, [&](std::size_t l) {
      const int layer = static_cast<int>(l);
      Stopwatch call;
      fillRegions[l] = layout::computeFillRegions(layout, layer, grid,
                                                  options.rules,
                                                  &blockedBuckets[l]);
      wireBuckets[l] = grid.bucketClipped(layout.layer(layer).wires);
      regionBusy[l] = call.seconds();
      Stopwatch map;
      wireDensity[l] = density::DensityMap::computeFromShapes(
          layout.layer(layer).wires, grid);
      densityBusy[l] = map.seconds();
    });
    t.prep.wall = stage.seconds();
  }
  t.regions = {t.prep.wall, sum(regionBusy)};
  t.densityMap = {t.prep.wall, sum(densityBusy)};

  // Stage 1: geometric bounds, then the first target plan.
  std::vector<density::DensityBounds> bounds(layers);
  std::vector<double> boundsBusy(layers);
  {
    Stopwatch stage;
    pool.parallelFor(layers, [&](std::size_t l) {
      Stopwatch call;
      bounds[l] = density::computeBounds(layout, static_cast<int>(l), grid,
                                         fillRegions[l], options.rules);
      boundsBusy[l] = call.seconds();
    });
    t.bounds = {stage.seconds(), sum(boundsBusy)};
  }
  const fill::TargetDensityPlanner planner(options.plannerWeights);
  fill::TargetPlan plan;
  {
    Stopwatch call;
    plan = planner.plan(bounds, grid.cols(), grid.rows());
    t.planSeconds += call.seconds();
  }

  // Stage 2: per-window candidate generation.
  std::vector<fill::WindowProblem> problems(numWindows);
  std::vector<double> candidateBusy(numWindows);
  const fill::CandidateGenerator generator(options.rules, options.candidate);
  {
    Stopwatch stage;
    pool.parallelFor(numWindows, [&](std::size_t w) {
      const int i = static_cast<int>(w) % grid.cols();
      const int j = static_cast<int>(w) / grid.cols();
      fill::WindowProblem& p = problems[w];
      p.window = grid.windowRect(i, j);
      p.fillRegions.reserve(layers);
      p.wires.reserve(layers);
      p.blocked.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l) {
        p.fillRegions.push_back(fillRegions[l][w]);
        p.wires.push_back(wireBuckets[l][w]);
        p.blocked.push_back(blockedBuckets[l][w]);
        p.wireDensity.push_back(wireDensity[l].at(i, j));
        p.targetDensity.push_back(plan.windowTarget[l][w]);
      }
      static thread_local fill::CandidateGenerator::Scratch scratch;
      Stopwatch call;
      generator.generate(p, scratch);
      candidateBusy[w] = call.seconds();
    });
    t.candidates = {stage.seconds(), sum(candidateBusy)};
  }
  for (const fill::WindowProblem& p : problems) {
    for (const auto& layerFills : p.fills) t.candidateCount += layerFills.size();
  }

  // Stage 3: tighten the upper bounds to the reachable candidate density
  // and re-plan.
  for (std::size_t l = 0; l < layers; ++l) {
    auto& upper = bounds[l].upper;
    for (std::size_t w = 0; w < numWindows; ++w) {
      const fill::WindowProblem& p = problems[w];
      geom::Area candidateArea = 0;
      for (const Rect& f : p.fills[l]) candidateArea += f.area();
      const auto windowArea = static_cast<double>(p.window.area());
      const double reachable =
          windowArea > 0
              ? p.wireDensity[l] + static_cast<double>(candidateArea) / windowArea
              : 0.0;
      upper[w] = std::min(upper[w], reachable);
      upper[w] = std::max(upper[w], bounds[l].lower[w]);
    }
  }
  {
    Stopwatch call;
    plan = planner.plan(bounds, grid.cols(), grid.rows());
    t.planSeconds += call.seconds();
  }
  for (std::size_t w = 0; w < numWindows; ++w) {
    for (std::size_t l = 0; l < layers; ++l) {
      problems[w].targetDensity[l] = plan.windowTarget[l][w];
    }
  }

  // Stage 4: fill sizing.
  const fill::FillSizer sizer(options.rules, options.sizer);
  std::vector<fill::FillSizer::Stats> windowStats(numWindows);
  std::vector<double> sizingBusy(numWindows);
  {
    Stopwatch stage;
    pool.parallelFor(numWindows, [&](std::size_t w) {
      static thread_local fill::FillSizer::Scratch scratch;
      Stopwatch call;
      sizer.size(problems[w], scratch, &windowStats[w]);
      sizingBusy[w] = call.seconds();
    });
    t.sizing = {stage.seconds(), sum(sizingBusy)};
  }
  for (const fill::FillSizer::Stats& s : windowStats) t.sizer.add(s);

  // Output: window order, layer by layer.
  for (const fill::WindowProblem& p : problems) {
    for (std::size_t l = 0; l < layers; ++l) {
      auto& out = layout.layer(static_cast<int>(l)).fills;
      out.insert(out.end(), p.fills[l].begin(), p.fills[l].end());
    }
  }
  t.fillCount = layout.fillCount();
  t.wallSeconds = total.seconds();
  t.serialSeconds = std::max(
      0.0, t.wallSeconds - t.prep.wall - t.bounds.wall - t.candidates.wall -
               t.sizing.wall);
  return t;
}

}  // namespace ofb

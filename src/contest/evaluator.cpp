#include "contest/evaluator.hpp"

#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "geometry/boolean.hpp"
#include "layout/drc_checker.hpp"
#include "layout/window_grid.hpp"

namespace ofl::contest {
namespace {

// Overlap area of two global shape sets, computed window-by-window so each
// Boolean sweep stays small. Window clipping partitions the plane, so the
// per-window intersection areas sum exactly to the global one.
double bucketedOverlapArea(const layout::WindowGrid& grid,
                           const std::vector<geom::Rect>& a,
                           const std::vector<geom::Rect>& b) {
  const auto bucketsA = grid.bucketClipped(a);
  const auto bucketsB = grid.bucketClipped(b);
  double total = 0.0;
  for (std::size_t w = 0; w < bucketsA.size(); ++w) {
    if (bucketsA[w].empty() || bucketsB[w].empty()) continue;
    total += static_cast<double>(
        geom::intersectionArea(bucketsA[w], bucketsB[w]));
  }
  return total;
}

}  // namespace

RawMetrics Evaluator::measure(const layout::Layout& layout) const {
  RawMetrics raw;
  const layout::WindowGrid grid(layout.die(), windowSize_);

  double sigmaSum = 0.0;
  double ohSum = 0.0;
  for (int l = 0; l < layout.numLayers(); ++l) {
    const density::DensityMap map = density::DensityMap::compute(layout, l, grid);
    const density::DensityMetrics m = density::computeMetrics(map);
    raw.layerSigma.push_back(m.sigma);
    raw.layerLine.push_back(m.lineHotspot);
    raw.layerOutlier.push_back(m.outlierHotspot);
    raw.variation += m.sigma;
    raw.line += m.lineHotspot;
    sigmaSum += m.sigma;
    ohSum += m.outlierHotspot;
  }
  raw.outlier = sigmaSum * ohSum;

  for (int l = 0; l + 1 < layout.numLayers(); ++l) {
    std::vector<geom::Rect> lower = layout.layer(l).wires;
    lower.insert(lower.end(), layout.layer(l).fills.begin(),
                 layout.layer(l).fills.end());
    std::vector<geom::Rect> upper = layout.layer(l + 1).wires;
    upper.insert(upper.end(), layout.layer(l + 1).fills.begin(),
                 layout.layer(l + 1).fills.end());
    const double all = bucketedOverlapArea(grid, lower, upper);
    const double wireOnly = bucketedOverlapArea(grid, layout.layer(l).wires,
                                                layout.layer(l + 1).wires);
    raw.pairOverlay.push_back(all - wireOnly);
    raw.overlay += all - wireOnly;
  }

  raw.fileSizeMB =
      static_cast<double>(layout.gdsStreamSize()) / 1e6;
  raw.fillCount = layout.fillCount();
  raw.drcViolations =
      layout::DrcChecker(rules_).check(layout, /*maxViolations=*/50).size();
  return raw;
}

density::DensityMap Evaluator::overlayMap(const layout::Layout& layout,
                                          int lowerLayer) const {
  const layout::WindowGrid grid(layout.die(), windowSize_);
  std::vector<double> values(static_cast<std::size_t>(grid.windowCount()),
                             0.0);
  if (lowerLayer >= 0 && lowerLayer + 1 < layout.numLayers()) {
    std::vector<geom::Rect> lower = layout.layer(lowerLayer).wires;
    lower.insert(lower.end(), layout.layer(lowerLayer).fills.begin(),
                 layout.layer(lowerLayer).fills.end());
    std::vector<geom::Rect> upper = layout.layer(lowerLayer + 1).wires;
    upper.insert(upper.end(), layout.layer(lowerLayer + 1).fills.begin(),
                 layout.layer(lowerLayer + 1).fills.end());
    const auto bucketsLower = grid.bucketClipped(lower);
    const auto bucketsUpper = grid.bucketClipped(upper);
    const auto wiresLower = grid.bucketClipped(layout.layer(lowerLayer).wires);
    const auto wiresUpper =
        grid.bucketClipped(layout.layer(lowerLayer + 1).wires);
    for (int j = 0; j < grid.rows(); ++j) {
      for (int i = 0; i < grid.cols(); ++i) {
        const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
        const geom::Area windowArea = grid.windowRect(i, j).area();
        if (windowArea <= 0) continue;
        const auto all = static_cast<double>(
            geom::intersectionArea(bucketsLower[w], bucketsUpper[w]));
        const auto wiresOnly = static_cast<double>(
            geom::intersectionArea(wiresLower[w], wiresUpper[w]));
        values[w] = (all - wiresOnly) / static_cast<double>(windowArea);
      }
    }
  }
  return density::DensityMap(grid.cols(), grid.rows(), std::move(values));
}

ScoreBreakdown Evaluator::score(const RawMetrics& raw, double runtimeSeconds,
                                double memoryMiB) const {
  ScoreBreakdown s;
  s.overlay = table_.overlay.score(raw.overlay);
  s.variation = table_.variation.score(raw.variation);
  s.line = table_.line.score(raw.line);
  s.outlier = table_.outlier.score(raw.outlier);
  s.size = table_.size.score(raw.fileSizeMB);
  s.runtime = table_.runtime.score(runtimeSeconds);
  s.memory = table_.memory.score(memoryMiB);
  s.quality = table_.overlay.alpha * s.overlay +
              table_.variation.alpha * s.variation +
              table_.line.alpha * s.line + table_.outlier.alpha * s.outlier +
              table_.size.alpha * s.size;
  s.total = s.quality + table_.runtime.alpha * s.runtime +
            table_.memory.alpha * s.memory;
  return s;
}

}  // namespace ofl::contest

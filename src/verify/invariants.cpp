#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "contest/evaluator.hpp"
#include "contest/score_table.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "density/sliding.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_reader.hpp"
#include "layout/drc_checker.hpp"
#include "layout/fill_region.hpp"
#include "layout/window_grid.hpp"
#include "service/result_cache.hpp"
#include "verify/oracle.hpp"

namespace ofl::verify {
namespace {

using geom::Rect;

bool relClose(double a, double b, double relTol) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= relTol * scale;
}

std::vector<Rect> layerShapes(const layout::Layout& chip, int l) {
  std::vector<Rect> shapes = chip.layer(l).wires;
  shapes.insert(shapes.end(), chip.layer(l).fills.begin(),
                chip.layer(l).fills.end());
  return shapes;
}

std::vector<Rect> sortedRects(std::vector<Rect> rects) {
  std::sort(rects.begin(), rects.end(), geom::RectYXLess{});
  return rects;
}

bool sameShapeSets(const layout::Layout& a, const layout::Layout& b,
                   std::string& detail) {
  if (a.numLayers() != b.numLayers()) {
    detail = "layer count changed";
    return false;
  }
  for (int l = 0; l < a.numLayers(); ++l) {
    if (sortedRects(a.layer(l).wires) != sortedRects(b.layer(l).wires)) {
      detail = "wires differ on layer " + std::to_string(l);
      return false;
    }
    if (sortedRects(a.layer(l).fills) != sortedRects(b.layer(l).fills)) {
      detail = "fills differ on layer " + std::to_string(l);
      return false;
    }
  }
  return true;
}

/// Snaps a window size onto the steps lattice the sliding prefix-sum
/// implementation is exact on (see oracle.hpp).
geom::Coord snapWindow(geom::Coord windowSize, int steps) {
  const geom::Coord snapped = (windowSize / steps) * steps;
  return std::max<geom::Coord>(snapped, steps);
}

void escapeJson(std::ostringstream& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::string toString(FaultClass fault) {
  switch (fault) {
    case FaultClass::kNone:
      return "none";
    case FaultClass::kSpacing:
      return "spacing";
    case FaultClass::kDensity:
      return "density";
    case FaultClass::kOverlay:
      return "overlay";
    case FaultClass::kDeterminism:
      return "determinism";
  }
  return "none";
}

std::optional<FaultClass> faultClassFromString(const std::string& name) {
  if (name == "spacing") return FaultClass::kSpacing;
  if (name == "density") return FaultClass::kDensity;
  if (name == "overlay") return FaultClass::kOverlay;
  if (name == "determinism") return FaultClass::kDeterminism;
  if (name == "none") return FaultClass::kNone;
  return std::nullopt;
}

bool VerifyReport::allPassed() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const CheckResult& c) { return c.passed; });
}

bool VerifyReport::ok() const {
  return injected == FaultClass::kNone ? allPassed() : injectionDetected;
}

const CheckResult* VerifyReport::find(const std::string& name) const {
  for (const CheckResult& c : checks) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string toJson(const VerifyReport& report) {
  std::ostringstream out;
  out << "{\n  \"checks\": [\n";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const CheckResult& c = report.checks[i];
    out << "    {\"name\": \"";
    escapeJson(out, c.name);
    out << "\", \"passed\": " << (c.passed ? "true" : "false")
        << ", \"detail\": \"";
    escapeJson(out, c.detail);
    out << "\"}";
    if (i + 1 < report.checks.size()) out << ",";
    out << "\n";
  }
  out << "  ],\n";
  out << "  \"injected\": \"" << toString(report.injected) << "\",\n";
  out << "  \"injectionDetected\": "
      << (report.injectionDetected ? "true" : "false") << ",\n";
  out << "  \"allPassed\": " << (report.allPassed() ? "true" : "false")
      << ",\n";
  out << "  \"ok\": " << (report.ok() ? "true" : "false") << "\n";
  out << "}\n";
  return out.str();
}

VerifyReport InvariantChecker::check(const layout::Layout& filled) const {
  VerifyReport report;
  report.injected = options_.inject;
  layout::Layout chip = filled;  // injections mutate only the copy
  const layout::DesignRules& rules = options_.engine.rules;
  const layout::WindowGrid grid(chip.die(), options_.engine.windowSize);

  // --- Fault injection (on the solution itself) ---------------------------
  if (options_.inject == FaultClass::kSpacing) {
    // Clone a fill at an illegal gap (or fabricate a too-close pair).
    const geom::Coord gap = std::max<geom::Coord>(rules.minSpacing - 1, 0);
    bool placed = false;
    for (int l = 0; l < chip.numLayers() && !placed; ++l) {
      if (chip.layer(l).fills.empty()) continue;
      const Rect f = chip.layer(l).fills.front();
      const Rect clone{f.xh + gap, f.yl, f.xh + gap + f.width(), f.yh};
      chip.layer(l).fills.push_back(clone.intersection(chip.die()).empty()
                                        ? Rect{f.xl - gap - f.width(), f.yl,
                                               f.xl - gap, f.yh}
                                        : clone);
      placed = true;
    }
    if (!placed && chip.numLayers() > 0) {
      const geom::Coord w = std::max<geom::Coord>(rules.minWidth, 1);
      chip.layer(0).fills.push_back({0, 0, w, w});
      chip.layer(0).fills.push_back({w + gap, 0, 2 * w + gap, w});
    }
  } else if (options_.inject == FaultClass::kDensity) {
    // Cover the most-constrained window (smallest upper bound) completely:
    // its density becomes 1, above u whenever any capacity is withheld.
    int bestLayer = 0;
    int bestWindow = 0;
    double bestUpper = std::numeric_limits<double>::infinity();
    for (int l = 0; l < chip.numLayers(); ++l) {
      const auto regions = layout::computeFillRegions(chip, l, grid, rules);
      const density::DensityBounds bounds =
          density::computeBounds(chip, l, grid, regions, rules);
      for (std::size_t w = 0; w < bounds.upper.size(); ++w) {
        if (bounds.upper[w] < bestUpper) {
          bestUpper = bounds.upper[w];
          bestLayer = l;
          bestWindow = static_cast<int>(w);
        }
      }
    }
    if (chip.numLayers() > 0 && grid.windowCount() > 0) {
      chip.layer(bestLayer).fills.push_back(grid.windowRect(
          bestWindow % grid.cols(), bestWindow / grid.cols()));
    }
  }
  // kOverlay biases the measured-vs-oracle comparison below; kDeterminism
  // perturbs the second engine run. Both prove the COMPARISON has teeth.

  // --- fills-inside-region ------------------------------------------------
  {
    CheckResult c{"fills-inside-region", true, ""};
    for (int l = 0; l < chip.numLayers() && c.passed; ++l) {
      const geom::Region region =
          layout::computeLayerFillRegion(chip, l, rules);
      const std::vector<Rect>& fills = chip.layer(l).fills;
      // Point-set containment in one sweep: every fill-covered point lies
      // inside the region iff the region covers the fills' whole union.
      const geom::Area covered =
          oracleIntersectionArea(region.rects(), fills);
      const geom::Area fillUnion = oracleUnionArea(fills);
      bool inDie = true;
      for (const Rect& f : fills) {
        if (!chip.die().contains(f)) {
          inDie = false;
          c.passed = false;
          c.detail = "layer " + std::to_string(l) + " fill " + f.str() +
                     " outside the die";
          break;
        }
      }
      if (inDie && covered != fillUnion) {
        c.passed = false;
        // Slow per-fill scan only on the failure path, for the message.
        for (const Rect& f : fills) {
          const Rect one[] = {f};
          if (oracleIntersectionArea(region.rects(), one) != f.area()) {
            c.detail = "layer " + std::to_string(l) + " fill " + f.str() +
                       " outside legal fill region";
            break;
          }
        }
        if (c.detail.empty())
          c.detail = "layer " + std::to_string(l) +
                     " fills extend outside legal fill region";
      }
    }
    if (c.passed)
      c.detail = std::to_string(chip.fillCount()) + " fills contained";
    report.checks.push_back(std::move(c));
  }

  // --- drc-clean ----------------------------------------------------------
  {
    CheckResult c{"drc-clean", true, ""};
    const auto violations =
        layout::DrcChecker(rules).check(chip, /*maxViolations=*/10);
    if (!violations.empty()) {
      c.passed = false;
      c.detail = std::to_string(violations.size()) + "+ violations, first: " +
                 violations.front().str();
    } else {
      c.detail = "no violations";
    }
    report.checks.push_back(std::move(c));
  }

  // --- density-bounds -----------------------------------------------------
  {
    CheckResult c{"density-bounds", true, ""};
    for (int l = 0; l < chip.numLayers() && c.passed; ++l) {
      const auto regions = layout::computeFillRegions(chip, l, grid, rules);
      const density::DensityBounds bounds =
          density::computeBounds(chip, l, grid, regions, rules);
      const density::DensityMap achieved =
          oracleWindowDensity(layerShapes(chip, l), grid);
      for (int w = 0; w < achieved.count(); ++w) {
        const double d = achieved.values()[static_cast<std::size_t>(w)];
        const double lo = bounds.lower[static_cast<std::size_t>(w)];
        const double hi = bounds.upper[static_cast<std::size_t>(w)];
        if (d < lo - options_.densityTolerance ||
            d > hi + options_.densityTolerance) {
          std::ostringstream msg;
          msg << "layer " << l << " window " << w << ": density " << d
              << " outside [" << lo << ", " << hi << "]";
          c.passed = false;
          c.detail = msg.str();
          break;
        }
      }
    }
    if (c.passed) c.detail = "all windows within planned bounds";
    report.checks.push_back(std::move(c));
  }

  // --- gds-roundtrip ------------------------------------------------------
  {
    CheckResult c{"gds-roundtrip", true, ""};
    const gds::Library lib = chip.toGds();
    const auto bytes = gds::Writer::serialize(lib);
    if (bytes != gds::Writer::serialize(chip.toGds())) {
      c.passed = false;
      c.detail = "GDS serialization is not byte-stable";
    } else {
      const auto parsed = gds::Reader::parse(bytes);
      if (!parsed) {
        c.passed = false;
        c.detail = "GDS stream did not parse back";
      } else {
        const layout::Layout back =
            layout::Layout::fromGds(*parsed, chip.die(), chip.numLayers());
        if (!sameShapeSets(chip, back, c.detail)) c.passed = false;
      }
    }
    if (c.passed)
      c.detail = std::to_string(bytes.size()) + " bytes, stable round-trip";
    report.checks.push_back(std::move(c));
  }

  // --- oasis-roundtrip ----------------------------------------------------
  {
    CheckResult c{"oasis-roundtrip", true, ""};
    const gds::Library lib = chip.toGds();
    const auto bytes = gds::OasisWriter::serialize(lib);
    if (bytes != gds::OasisWriter::serialize(chip.toGds())) {
      c.passed = false;
      c.detail = "OASIS serialization is not byte-stable";
    } else {
      const auto parsed = gds::OasisReader::parse(bytes);
      if (!parsed) {
        c.passed = false;
        c.detail = "OASIS stream did not parse back";
      } else {
        const layout::Layout back =
            layout::Layout::fromGds(*parsed, chip.die(), chip.numLayers());
        if (!sameShapeSets(chip, back, c.detail)) c.passed = false;
      }
    }
    if (c.passed)
      c.detail = std::to_string(bytes.size()) + " bytes, stable round-trip";
    report.checks.push_back(std::move(c));
  }

  // --- oracle-density -----------------------------------------------------
  {
    CheckResult c{"oracle-density", true, ""};
    for (int l = 0; l < chip.numLayers() && c.passed; ++l) {
      const density::DensityMap prod =
          density::DensityMap::compute(chip, l, grid);
      const density::DensityMap ref =
          oracleWindowDensity(layerShapes(chip, l), grid);
      for (int w = 0; w < prod.count(); ++w) {
        const double a = prod.values()[static_cast<std::size_t>(w)];
        const double b = ref.values()[static_cast<std::size_t>(w)];
        if (std::abs(a - b) > options_.densityTolerance) {
          std::ostringstream msg;
          msg << "layer " << l << " window " << w << ": production " << a
              << " vs oracle " << b;
          c.passed = false;
          c.detail = msg.str();
          break;
        }
      }
    }
    if (c.passed) c.detail = "per-window densities agree";
    report.checks.push_back(std::move(c));
  }

  // --- oracle-sliding -----------------------------------------------------
  {
    CheckResult c{"oracle-sliding", true, ""};
    density::SlidingDensityOptions sopt;
    sopt.steps = 4;
    sopt.windowSize = snapWindow(options_.engine.windowSize, sopt.steps);
    for (int l = 0; l < chip.numLayers() && c.passed; ++l) {
      const std::vector<Rect> shapes = layerShapes(chip, l);
      const density::DensityMap prod =
          density::computeSlidingDensity(shapes, chip.die(), sopt);
      const density::DensityMap ref =
          oracleSlidingDensity(shapes, chip.die(), sopt);
      if (prod.cols() != ref.cols() || prod.rows() != ref.rows()) {
        c.passed = false;
        c.detail = "sliding grids differ on layer " + std::to_string(l);
        break;
      }
      for (int w = 0; w < prod.count(); ++w) {
        const double a = prod.values()[static_cast<std::size_t>(w)];
        const double b = ref.values()[static_cast<std::size_t>(w)];
        if (std::abs(a - b) > options_.densityTolerance) {
          std::ostringstream msg;
          msg << "layer " << l << " position " << w << ": production " << a
              << " vs oracle " << b;
          c.passed = false;
          c.detail = msg.str();
          break;
        }
      }
    }
    if (c.passed) c.detail = "sliding-window densities agree";
    report.checks.push_back(std::move(c));
  }

  // --- oracle-metrics -----------------------------------------------------
  {
    CheckResult c{"oracle-metrics", true, ""};
    for (int l = 0; l < chip.numLayers() && c.passed; ++l) {
      const density::DensityMap map =
          density::DensityMap::compute(chip, l, grid);
      const density::DensityMetrics prod = density::computeMetrics(map);
      const density::DensityMetrics ref = oracleMetrics(map);
      const double tol = options_.metricTolerance;
      if (!relClose(prod.mean, ref.mean, tol) ||
          !relClose(prod.sigma, ref.sigma, tol) ||
          !relClose(prod.lineHotspot, ref.lineHotspot, tol) ||
          !relClose(prod.outlierHotspot, ref.outlierHotspot, tol)) {
        std::ostringstream msg;
        msg << "layer " << l << ": production (sigma " << prod.sigma << ", lh "
            << prod.lineHotspot << ", oh " << prod.outlierHotspot
            << ") vs oracle (sigma " << ref.sigma << ", lh " << ref.lineHotspot
            << ", oh " << ref.outlierHotspot << ")";
        c.passed = false;
        c.detail = msg.str();
      }
    }
    if (c.passed) c.detail = "sigma / line / outlier agree";
    report.checks.push_back(std::move(c));
  }

  // --- oracle-evaluator + oracle-score ------------------------------------
  {
    const contest::ScoreTable table = contest::scoreTableFor(options_.suite);
    const contest::Evaluator evaluator(options_.engine.windowSize, table,
                                       rules);
    const contest::RawMetrics prod = evaluator.measure(chip);
    const contest::RawMetrics ref =
        oracleMeasure(chip, options_.engine.windowSize);

    CheckResult c{"oracle-evaluator", true, ""};
    const double tol = options_.metricTolerance;
    double measuredOverlay = prod.overlay;
    if (options_.inject == FaultClass::kOverlay) {
      // Bias the measured value past the tolerance band: if the check still
      // "passes", the overlay comparison is vacuous.
      measuredOverlay += (std::abs(measuredOverlay) + 1.0) * 1e-3;
    }
    if (!relClose(measuredOverlay, ref.overlay, tol)) {
      std::ostringstream msg;
      msg << "overlay: production " << measuredOverlay << " vs oracle "
          << ref.overlay;
      c.passed = false;
      c.detail = msg.str();
    } else if (prod.pairOverlay.size() != ref.pairOverlay.size()) {
      c.passed = false;
      c.detail = "layer-pair overlay counts differ";
    } else if (!relClose(prod.variation, ref.variation, tol) ||
               !relClose(prod.line, ref.line, tol) ||
               !relClose(prod.outlier, ref.outlier, tol)) {
      std::ostringstream msg;
      msg << "metrics: production (var " << prod.variation << ", line "
          << prod.line << ", outlier " << prod.outlier << ") vs oracle (var "
          << ref.variation << ", line " << ref.line << ", outlier "
          << ref.outlier << ")";
      c.passed = false;
      c.detail = msg.str();
    } else {
      for (std::size_t p = 0; p < prod.pairOverlay.size(); ++p) {
        if (!relClose(prod.pairOverlay[p], ref.pairOverlay[p], tol)) {
          std::ostringstream msg;
          msg << "pair " << p << " overlay: production " << prod.pairOverlay[p]
              << " vs oracle " << ref.pairOverlay[p];
          c.passed = false;
          c.detail = msg.str();
          break;
        }
      }
    }
    if (c.passed) c.detail = "raw contest metrics agree";
    report.checks.push_back(std::move(c));

    CheckResult s{"oracle-score", true, ""};
    const double runtimeSeconds = 1.0;
    const double memoryMiB = 256.0;
    const contest::ScoreBreakdown prodScore =
        evaluator.score(prod, runtimeSeconds, memoryMiB);
    const contest::ScoreBreakdown refScore =
        oracleScore(table, prod, runtimeSeconds, memoryMiB);
    const double stol = 1e-12;
    if (std::abs(prodScore.quality - refScore.quality) > stol ||
        std::abs(prodScore.total - refScore.total) > stol ||
        std::abs(prodScore.overlay - refScore.overlay) > stol ||
        std::abs(prodScore.variation - refScore.variation) > stol ||
        std::abs(prodScore.line - refScore.line) > stol ||
        std::abs(prodScore.outlier - refScore.outlier) > stol ||
        std::abs(prodScore.size - refScore.size) > stol) {
      std::ostringstream msg;
      msg << "score: production total " << prodScore.total << " vs oracle "
          << refScore.total;
      s.passed = false;
      s.detail = msg.str();
    } else {
      s.detail = "Eqn. 3-4 scores agree";
    }
    report.checks.push_back(std::move(s));
  }

  // --- determinism --------------------------------------------------------
  if (options_.checkDeterminism) {
    CheckResult c{"determinism", true, ""};
    layout::Layout base = chip;
    base.clearFills();

    fill::FillEngineOptions serialOpts = options_.engine;
    serialOpts.numThreads = 1;
    serialOpts.cancel = nullptr;
    layout::Layout runA = base;
    const fill::FillReport reportA = fill::FillEngine(serialOpts).run(runA);
    const auto bytesA = gds::Writer::serialize(runA.toGds());

    fill::FillEngineOptions threadedOpts = serialOpts;
    threadedOpts.numThreads = std::max(options_.determinismThreads, 2);
    layout::Layout runB = base;
    fill::FillEngine(threadedOpts).run(runB);
    if (options_.inject == FaultClass::kDeterminism) {
      // Simulate a thread-count-dependent result: nudge run B's output.
      bool nudged = false;
      for (int l = 0; l < runB.numLayers() && !nudged; ++l) {
        if (!runB.layer(l).fills.empty()) {
          Rect& f = runB.layer(l).fills.front();
          if (f.width() > 1) {
            f.xh -= 1;
          } else {
            f.yh += 1;
          }
          nudged = true;
        }
      }
      if (!nudged && runB.numLayers() > 0) {
        runB.layer(0).fills.push_back({0, 0, 1, 1});
      }
    }
    const auto bytesB = gds::Writer::serialize(runB.toGds());

    // Cache replay path: capture run A, apply onto a fresh copy.
    layout::Layout runC = base;
    service::CachedFill::capture(runA, reportA)->applyTo(runC);
    const auto bytesC = gds::Writer::serialize(runC.toGds());

    if (bytesA != bytesB) {
      c.passed = false;
      c.detail = "1-thread vs " + std::to_string(threadedOpts.numThreads) +
                 "-thread output differs";
    } else if (bytesA != bytesC) {
      c.passed = false;
      c.detail = "cache capture/apply replay differs from direct run";
    } else {
      c.detail = "1 vs " + std::to_string(threadedOpts.numThreads) +
                 " threads vs cache replay byte-identical";
    }
    report.checks.push_back(std::move(c));
  }

  // --- injection verdict --------------------------------------------------
  switch (options_.inject) {
    case FaultClass::kNone:
      break;
    case FaultClass::kSpacing: {
      const CheckResult* drc = report.find("drc-clean");
      const CheckResult* region = report.find("fills-inside-region");
      report.injectionDetected =
          (drc && !drc->passed) || (region && !region->passed);
      break;
    }
    case FaultClass::kDensity: {
      const CheckResult* bounds = report.find("density-bounds");
      report.injectionDetected = bounds && !bounds->passed;
      break;
    }
    case FaultClass::kOverlay: {
      const CheckResult* evaluator = report.find("oracle-evaluator");
      report.injectionDetected = evaluator && !evaluator->passed;
      break;
    }
    case FaultClass::kDeterminism: {
      const CheckResult* det = report.find("determinism");
      report.injectionDetected = det && !det->passed;
      break;
    }
  }
  return report;
}

}  // namespace ofl::verify

// Ablation benches for the design choices DESIGN.md calls out:
//   1. sizing backend: dual min-cost flow (Section 3.3.3) vs dense-simplex
//      LP (Section 3.3.2) — the paper's motivation for the MCF transform;
//   2. lambda sweep (candidate over-generation, Alg. 1);
//   3. eta sweep (overlay weight, Eqn. 9);
//   4. window size sweep (dissection granularity);
//   5-7. litho gutters, hierarchical output, CMP/sliding-window analysis.
//
// Each section prints quality-relevant raw metrics on the "s" suite so the
// trends are directly comparable; per-variant runtime and density-variation
// series land in BENCH_ablation.json.
//
// Usage: bench_ablation [reps] [--reps N] [--warmup N] [--out F]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "contest/evaluator.hpp"
#include "baselines/greedy_filler.hpp"
#include "density/cmp_model.hpp"
#include "density/sliding.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "layout/gds_compact.hpp"
#include "layout/litho.hpp"

using namespace ofl;

namespace {

struct RunOutcome {
  double seconds;
  contest::RawMetrics raw;
  fill::FillReport report;
};

RunOutcome runEngine(const contest::BenchmarkSpec& spec,
                     const fill::FillEngineOptions& options) {
  layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  Timer timer;
  RunOutcome out;
  out.report = fill::FillEngine(options).run(chip);
  out.seconds = timer.elapsedSeconds();
  const contest::Evaluator evaluator(
      spec.windowSize, contest::scoreTableFor(spec.name), spec.rules);
  out.raw = evaluator.measure(chip);
  return out;
}

void printRow(const std::string& label, const RunOutcome& o) {
  std::printf(
      "%-28s %7.2fs  sizing %6.2fs  fills %7zu  sigma %.4f  line %7.3f  "
      "overlay %.3fM  size %.2fMB\n",
      label.c_str(), o.seconds, o.report.sizingSeconds, o.raw.fillCount,
      o.raw.variation, o.raw.line, o.raw.overlay / 1e6, o.raw.fileSizeMB);
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  BenchArgs args = BenchArgs::parse(argc, argv, "", /*reps=*/1,
                                    /*warmup=*/0);
  if (!args.suite.empty() &&
      args.suite.find_first_not_of("0123456789") == std::string::npos) {
    args.reps = std::max(1, std::atoi(args.suite.c_str()));
    args.suite = "";
  }
  Harness h(args.harnessOptions("ablation"));

  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("s");
  fill::FillEngineOptions base;
  base.windowSize = spec.windowSize;
  base.rules = spec.rules;

  // A timed+measured engine run recorded under `tag`: wall seconds as a
  // wall-clock series, density variation (sigma) as a machine-independent
  // ratio series.
  auto record = [&h](const std::string& tag, const RunOutcome& o) {
    h.series("wall_" + tag + "_s", "s").record(o.seconds);
    h.series("sigma_" + tag, "sigma", Direction::kLowerIsBetter,
             Scale::kRatio)
        .record(o.raw.variation);
  };

  bool lithoAwareWins = true;
  bool compactWinsOnCells = true;

  h.runInterleaved({[&] {
    std::printf("== Ablation 1: sizing backend (paper 3.3.2 vs 3.3.3) ==\n");
    {
      fill::FillEngineOptions mcfOpt = base;
      RunOutcome o = runEngine(spec, mcfOpt);
      printRow("dual-mcf (network simplex)", o);
      record("mcf_nsx", o);
      fill::FillEngineOptions sspOpt = base;
      sspOpt.sizer.backend = mcf::McfBackend::kSuccessiveShortestPath;
      o = runEngine(spec, sspOpt);
      printRow("dual-mcf (ssp)", o);
      record("mcf_ssp", o);
      fill::FillEngineOptions lpOpt = base;
      lpOpt.sizer.useLpSolver = true;
      o = runEngine(spec, lpOpt);
      printRow("dense simplex LP", o);
      record("dense_lp", o);
    }

    std::printf("\n== Ablation 2: lambda (candidate over-generation) ==\n");
    for (const double lambda : {1.0, 1.15, 1.3, 1.6}) {
      fill::FillEngineOptions o = base;
      o.candidate.lambda = lambda;
      char label[64];
      std::snprintf(label, sizeof(label), "lambda = %.2f", lambda);
      const RunOutcome out = runEngine(spec, o);
      printRow(label, out);
      char tag[32];
      std::snprintf(tag, sizeof(tag), "lambda_%d",
                    static_cast<int>(lambda * 100));
      record(tag, out);
    }

    std::printf("\n== Ablation 3: eta (overlay weight, Eqn. 9) ==\n");
    for (const double eta : {0.0, 0.5, 1.0, 4.0}) {
      fill::FillEngineOptions o = base;
      o.sizer.eta = eta;
      char label[64];
      std::snprintf(label, sizeof(label), "eta = %.1f", eta);
      const RunOutcome out = runEngine(spec, o);
      printRow(label, out);
      char tag[32];
      std::snprintf(tag, sizeof(tag), "eta_%d", static_cast<int>(eta * 10));
      record(tag, out);
    }

    std::printf("\n== Ablation 4: window size ==\n");
    for (const geom::Coord w : {600, 1200, 2400}) {
      fill::FillEngineOptions o = base;
      o.windowSize = w;
      char label[64];
      std::snprintf(label, sizeof(label), "window = %lld",
                    static_cast<long long>(w));
      // Evaluate against the suite's canonical window size regardless of
      // the engine's internal dissection.
      layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
      Timer timer;
      RunOutcome out;
      out.report = fill::FillEngine(o).run(chip);
      out.seconds = timer.elapsedSeconds();
      const contest::Evaluator evaluator(
          spec.windowSize, contest::scoreTableFor(spec.name), spec.rules);
      out.raw = evaluator.measure(chip);
      printRow(label, out);
      record("window_" + std::to_string(static_cast<long long>(w)), out);
    }

    std::printf("\n== Ablation 5: litho-aware gutters (paper future work) ==\n");
    {
      // Rules whose min spacing lands inside the forbidden-pitch band, so
      // plain slicing creates litho hotspots and the litho-aware mode must
      // remove the fill-induced ones.
      contest::BenchmarkSpec lithoSpec = spec;
      lithoSpec.rules.minSpacing = 14;
      const layout::LithoRules band{12, 18};
      std::size_t hotspots[2] = {0, 0};
      for (const bool aware : {false, true}) {
        layout::Layout chip = contest::BenchmarkGenerator::generate(lithoSpec);
        fill::FillEngineOptions o = base;
        o.rules = lithoSpec.rules;
        if (aware) o.candidate.lithoAvoid = band;
        Timer timer;
        fill::FillEngine(o).run(chip);
        const double seconds = timer.elapsedSeconds();
        hotspots[aware ? 1 : 0] = layout::LithoChecker(band).count(chip);
        const contest::Evaluator evaluator(spec.windowSize,
                                           contest::scoreTableFor(spec.name),
                                           lithoSpec.rules);
        const contest::RawMetrics raw = evaluator.measure(chip);
        std::printf("%-28s %7.2fs  litho hotspots %6zu  sigma %.4f  "
                    "size %.2fMB\n",
                    aware ? "litho-aware gutters" : "plain gutters", seconds,
                    hotspots[aware ? 1 : 0], raw.variation, raw.fileSizeMB);
        h.series(aware ? "litho_hotspots_aware" : "litho_hotspots_plain",
                 "count", Direction::kLowerIsBetter, Scale::kRatio)
            .record(static_cast<double>(hotspots[aware ? 1 : 0]));
      }
      lithoAwareWins = lithoAwareWins && hotspots[1] <= hotspots[0];
    }

    std::printf("\n== Ablation 5b: hierarchical (AREF) fill output ==\n");
    {
      // The engine's sizing stage individualizes fill shapes (that is what
      // hits the density target to DBU precision), so its output arrays
      // poorly; a greedy filler's untouched grid cells compact massively.
      // This quantifies the regularity/precision trade-off.
      auto measure = [&](const char* label, const std::string& tag,
                         layout::Layout& chip) {
        const long long flat = chip.gdsStreamSize();
        const long long compact =
            gds::Writer::streamSize(layout::toCompactGds(chip));
        const long long oasis = gds::OasisWriter::streamSize(chip.toGds());
        std::printf(
            "%-28s flat %7.2fMB  compact %7.2fMB (%.2fx)  oasis %6.2fMB "
            "(%.2fx)\n",
            label, static_cast<double>(flat) / 1e6,
            static_cast<double>(compact) / 1e6,
            static_cast<double>(flat) / static_cast<double>(compact),
            static_cast<double>(oasis) / 1e6,
            static_cast<double>(flat) / static_cast<double>(oasis));
        const double ratio =
            static_cast<double>(flat) / static_cast<double>(compact);
        h.series("compact_ratio_" + tag, "x", Direction::kHigherIsBetter,
                 Scale::kRatio)
            .record(ratio);
        return ratio;
      };
      {
        layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
        fill::FillEngine(base).run(chip);
        measure("engine (sized fills)", "sized", chip);
      }
      double greedyRatio = 0.0;
      {
        layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
        baselines::GreedyFiller::Options o;
        o.windowSize = spec.windowSize;
        o.rules = spec.rules;
        baselines::GreedyFiller(o).fill(chip);
        greedyRatio = measure("greedy (grid cells)", "greedy", chip);
      }
      {
        // Industrial fill-cell mode: fixed-size cells + light sizing keep
        // the pattern regular, so AREF compaction collapses it.
        layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
        fill::FillEngineOptions o = base;
        o.candidate.uniformCells = true;
        o.sizer.iterations = 0;  // preserve cell regularity
        fill::FillEngine(o).run(chip);
        const double cellRatio =
            measure("engine (uniform fill cells)", "cells", chip);
        compactWinsOnCells = compactWinsOnCells && cellRatio > 1.0 &&
                             greedyRatio > 1.0;
      }
    }

    std::printf("\n== Ablation 6: predicted CMP topography ==\n");
    {
      // The physical effect behind the density scores: predicted post-CMP
      // thickness range (effective-density model) before and after fill.
      layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
      const layout::WindowGrid grid(chip.die(), spec.windowSize);
      auto report = [&](const char* label, const char* tag) {
        for (int l = 0; l < chip.numLayers(); ++l) {
          const auto map = density::DensityMap::compute(chip, l, grid);
          const auto cmp = density::summarizeCmp(map);
          std::printf("%-16s layer %d effective density [%.3f, %.3f], "
                      "predicted thickness range %.1f nm\n",
                      label, l + 1, cmp.minEffective, cmp.maxEffective,
                      cmp.thicknessRangeNm);
          if (l == 0) {
            h.series(std::string("cmp_thickness_range_") + tag, "nm",
                     Direction::kLowerIsBetter, Scale::kRatio)
                .record(cmp.thicknessRangeNm);
          }
        }
      };
      report("before fill", "before");
      fill::FillEngine(base).run(chip);
      report("after fill", "after");
    }

    std::printf("\n== Ablation 7: multi-window (overlapping) analysis ==\n");
    {
      layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
      density::SlidingDensityOptions sopt;
      sopt.windowSize = spec.windowSize;
      sopt.steps = 4;
      auto report = [&](const char* label) {
        for (int l = 0; l < chip.numLayers(); ++l) {
          std::vector<geom::Rect> shapes = chip.layer(l).wires;
          shapes.insert(shapes.end(), chip.layer(l).fills.begin(),
                        chip.layer(l).fills.end());
          const auto e = density::slidingExtrema(shapes, chip.die(), sopt);
          std::printf("%-16s layer %d sliding-window density range "
                      "[%.3f, %.3f] spread %.3f\n",
                      label, l + 1, e.minDensity, e.maxDensity,
                      e.maxDensity - e.minDensity);
        }
      };
      report("before fill");
      fill::FillEngine(base).run(chip);
      report("after fill");
    }
  }});

  h.check("litho_aware_removes_hotspots", lithoAwareWins);
  h.check("compaction_wins_on_regular_fill", compactWinsOnCells);
  return h.finish();
}

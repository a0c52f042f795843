// Hot-path profile of the default fill engine: one contest benchmark,
// single-threaded, profiled every rep. Reports absolute stage seconds from
// the profiling registry -- region prep, wire density, planning (bounds +
// both target sweeps), candidates and its four sub-stages, sizing and its
// overlay / MCF-solve sub-stages, end-to-end wall -- plus two machine-
// independent ratios that gate on any machine: the share of sizing passes
// solved in closed form, and the overlay-marginal kernel's share of sizing
// time. A pass without spacing pairs skips the min-cost flow, so
// mcf_solve_s only counts coupled passes; bench_mcf times the flow solve
// itself.
//
// Each rep also runs one legacy-mode ECO (FillEngine::runIncremental
// without a window cache, as every served ECO runs) on the filled layout
// after a fixed edit: the wires inside a 600 x 600 square at the centre of
// the middle window are removed. It records the ECO's wall, region-prep
// and density-compute seconds, and the ECO wall over the same rep's run()
// wall, a ratio that gates on any machine.
//
// The bench exits nonzero when reps disagree on the fills of the run or of
// the ECO (the engine is deterministic) or when no pass took the closed
// form -- the sizer's fast path must actually engage (the CI perf-smoke
// gate). The harness discards warmup rounds, so no rep pays the cold-cache
// start. Results: BENCH_hotpath.json.
//
// Usage: bench_hotpath [suite] [reps] [--reps N] [--warmup N] [--out F]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"

using namespace ofl;

namespace {

// Order-sensitive fingerprint of the fill solution: identical hashes mean
// bit-identical fill lists.
std::uint64_t fillHash(const layout::Layout& chip) {
  Fnv1a64 h;
  for (int l = 0; l < chip.numLayers(); ++l) {
    for (const geom::Rect& f : chip.layer(l).fills) {
      h.i64(f.xl);
      h.i64(f.yl);
      h.i64(f.xh);
      h.i64(f.yh);
    }
  }
  return h.digest();
}

double ratio(long long num, long long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// Identical hashes across reps, the first rep's hash as the reference.
struct HashCheck {
  std::uint64_t ref = 0;
  bool have = false;
  bool same = true;
  void add(std::uint64_t hash) {
    if (!have) {
      ref = hash;
      have = true;
    } else if (hash != ref) {
      same = false;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "m", 3);
  const contest::BenchmarkSpec spec =
      contest::BenchmarkGenerator::spec(args.suite);
  const layout::Layout original = contest::BenchmarkGenerator::generate(spec);
  std::printf("== Hot-path profile: suite %s, %zu wires, 1 thread, "
              "%d reps + %d warmup ==\n",
              spec.name.c_str(), original.wireCount(), args.reps,
              args.warmup);

  Harness h(args.harnessOptions("hotpath"));
  h.param("suite", spec.name);
  h.param("threads", static_cast<std::int64_t>(1));

  const struct {
    const char* series;
    prof::Stage stage;
  } stages[] = {
      {"region_prep_s", prof::Stage::kRegionPrep},
      {"density_compute_s", prof::Stage::kDensityCompute},
      {"planning_s", prof::Stage::kPlanning},
      {"candidates_s", prof::Stage::kCandidates},
      {"candidates_region_s", prof::Stage::kCandidateRegion},
      {"candidates_slice_s", prof::Stage::kCandidateSlice},
      {"candidates_score_s", prof::Stage::kCandidateScore},
      {"candidates_refine_s", prof::Stage::kCandidateRefine},
      {"sizing_s", prof::Stage::kSizing},
      {"sizing_overlay_s", prof::Stage::kSizerOverlay},
      {"mcf_solve_s", prof::Stage::kMcfSolve},
  };
  std::vector<Series*> stageSeries;
  for (const auto& s : stages) stageSeries.push_back(&h.series(s.series, "s"));
  Series& wall = h.series("wall_s", "s");
  Series& closedFormRatio = h.series("closed_form_ratio", "ratio",
                                     Direction::kHigherIsBetter,
                                     Scale::kRatio);
  Series& overlayShare = h.series("sizing_overlay_share", "ratio",
                                  Direction::kLowerIsBetter, Scale::kRatio);

  Series& ecoWall = h.series("eco_wall_s", "s");
  Series& ecoRegionPrep = h.series("eco_region_prep_s", "s");
  Series& ecoDensity = h.series("eco_density_compute_s", "s");

  fill::FillEngineOptions options;
  options.windowSize = spec.windowSize;
  options.rules = spec.rules;
  options.numThreads = 1;

  // The ECO base: the filled layout with the wires inside the edit square
  // removed.
  layout::Layout ecoBase = original;
  fill::FillEngine(options).run(ecoBase);
  const layout::WindowGrid grid(ecoBase.die(), options.windowSize);
  const geom::Rect middle = grid.windowRect(grid.cols() / 2, grid.rows() / 2);
  const geom::Coord cx = (middle.xl + middle.xh) / 2;
  const geom::Coord cy = (middle.yl + middle.yh) / 2;
  const geom::Rect edit{cx - 300, cy - 300, cx + 300, cy + 300};
  for (int l = 0; l < ecoBase.numLayers(); ++l) {
    std::erase_if(ecoBase.layer(l).wires, [&](const geom::Rect& r) {
      return r.xl >= edit.xl && r.yl >= edit.yl && r.xh <= edit.xh &&
             r.yh <= edit.yh;
    });
  }

  HashCheck runHash, ecoHash;
  fill::FillReport last;
  prof::Registry::instance().setEnabled(true);
  h.runInterleaved({[&] {
    layout::Layout chip = original;
    prof::Registry::instance().reset();
    Timer t;
    last = fill::FillEngine(options).run(chip);
    wall.record(t.elapsedSeconds());
    for (std::size_t i = 0; i < stageSeries.size(); ++i) {
      stageSeries[i]->record(last.profile.stage(stages[i].stage).seconds());
    }
    const fill::FillSizer::Stats& st = last.sizerStats;
    closedFormRatio.record(ratio(st.closedFormSolves, st.solves));
    const double sizing = last.profile.stage(prof::Stage::kSizing).seconds();
    overlayShare.record(
        sizing > 0
            ? last.profile.stage(prof::Stage::kSizerOverlay).seconds() / sizing
            : 0.0);
    runHash.add(fillHash(chip));

    layout::Layout eco = ecoBase;
    prof::Registry::instance().reset();
    Timer te;
    const fill::FillReport ecoReport =
        fill::FillEngine(options).runIncremental(eco, edit);
    ecoWall.record(te.elapsedSeconds());
    ecoRegionPrep.record(
        ecoReport.profile.stage(prof::Stage::kRegionPrep).seconds());
    ecoDensity.record(
        ecoReport.profile.stage(prof::Stage::kDensityCompute).seconds());
    ecoHash.add(fillHash(eco));
  }});
  prof::Registry::instance().setEnabled(false);
  h.recordRatio("eco_to_run_ratio", ecoWall, wall, Direction::kLowerIsBetter);

  const fill::FillSizer::Stats& st = last.sizerStats;
  std::printf("\n-- last rep (%zu fills, hash %llx) --\n", last.fillCount,
              static_cast<unsigned long long>(runHash.ref));
  std::fputs(last.profile.human().c_str(), stdout);
  std::printf("  sizer: %lld solves, %lld closed form [%.0f%%]\n\n",
              st.solves, st.closedFormSolves,
              100.0 * ratio(st.closedFormSolves, st.solves));

  h.param("fill_count", static_cast<std::int64_t>(last.fillCount));
  h.param("mcf_solves", static_cast<std::int64_t>(st.solves));
  h.check("deterministic", runHash.same);
  h.check("eco_deterministic", ecoHash.same);
  h.check("closed_form_engaged", st.closedFormSolves > 0);
  return h.finish();
}

// MCF solver-level replay: fill-sizing-shaped differential LP sequences
// with spacing constraints (each "window" solves H1,V1,H2,V2 -- round 2
// repeats the topology with perturbed costs, the pattern FillSizer emits
// on coupled passes) are solved through the default DifferentialLpSolver,
// one cold network-simplex solve per LP, as the sizer does. Reports
// ns/solve. The engine-level sizing profile lives in bench_hotpath.
//
// Every replayed x must equal a successive-shortest-path solve of the same
// LP (canonicalization makes x backend-independent). The bench exits
// nonzero on a mismatch (the CI perf-smoke gate). Results go to
// BENCH_mcf.json.
//
// Usage: bench_mcf [suite] [reps] [--reps N] [--warmup N] [--out F]
// (the LP sequences are synthetic; suite is accepted for the shared
// bench CLI and ignored)
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "mcf/dual_lp.hpp"

using namespace ofl;
using namespace ofl::mcf;

namespace {

// Fill-sizing-shaped differential LP: n fills in a row, each with lo/hi
// edge variables, min-width constraints and spacing constraints to the
// next fill — the structure FillSizer emits.
DifferentialLp sizingShapedLp(int fills, std::uint64_t seed) {
  Rng rng(seed);
  DifferentialLp lp;
  Value cursor = 0;
  for (int f = 0; f < fills; ++f) {
    const Value width = rng.uniformInt(40, 120);
    const Value height = rng.uniformInt(40, 120);
    const Value shrink = 25;
    const int lo = lp.addVariable(-height, cursor, cursor + shrink);
    const int hi =
        lp.addVariable(height, cursor + width - shrink, cursor + width);
    lp.addConstraint(hi, lo, 10);
    if (f > 0) lp.addConstraint(lo, hi - 3, 10);  // spacing to previous hi
    cursor += width + rng.uniformInt(5, 30);
  }
  return lp;
}

// Same topology, costs nudged — a "round 2" solve. Every third sequence
// keeps its costs. The sequences stay fixed so that ns/solve compares
// across recorded baselines.
DifferentialLp perturbCosts(const DifferentialLp& base, std::uint64_t seed,
                            bool keepCosts) {
  Rng rng(seed);
  DifferentialLp lp;
  for (int v = 0; v < base.numVariables(); ++v) {
    const Value dc = keepCosts ? 0 : rng.uniformInt(-15, 15);
    lp.addVariable(base.cost(v) + dc, base.lower(v), base.upper(v));
  }
  for (const DiffConstraint& c : base.constraints()) {
    lp.addConstraint(c.i, c.j, c.bound);
  }
  return lp;
}

struct SolverRun {
  double seconds = 0.0;
  long long solves = 0;
  std::uint64_t xHash = 0;  // FNV over every solve's x, in order
};

void hashX(Fnv1a64& h, const DiffLpResult& r) {
  h.boolean(r.feasible);
  for (const Value v : r.x) h.i64(v);
}

// Solves every LP of every sequence (4 each) with the default solver.
SolverRun replay(const std::vector<std::vector<DifferentialLp>>& sequences) {
  SolverRun run;
  Fnv1a64 h;
  const DifferentialLpSolver solver;
  Timer t;
  for (const auto& seq : sequences) {
    for (const DifferentialLp& lp : seq) {
      hashX(h, solver.solve(lp));
      ++run.solves;
    }
  }
  run.seconds = t.elapsedSeconds();
  run.xHash = h.digest();
  return run;
}

// The same x stream from SSP solves: the independent reference.
std::uint64_t sspHash(
    const std::vector<std::vector<DifferentialLp>>& sequences) {
  Fnv1a64 h;
  const DifferentialLpSolver ssp(McfBackend::kSuccessiveShortestPath);
  for (const auto& seq : sequences) {
    for (const DifferentialLp& lp : seq) hashX(h, ssp.solve(lp));
  }
  return h.digest();
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "s", 3);

  const int kSequences = 400;
  const int kFills = 24;
  std::vector<std::vector<DifferentialLp>> sequences;
  sequences.reserve(kSequences);
  for (int s = 0; s < kSequences; ++s) {
    const auto seed = static_cast<std::uint64_t>(s) * 7919 + 11;
    const bool repeatCosts = (s % 3 == 0);
    const DifferentialLp h1 = sizingShapedLp(kFills, seed);
    const DifferentialLp v1 = sizingShapedLp(kFills, seed + 1);
    // H2/V2 repeat the round-1 topology with nudged (or repeated) costs.
    std::vector<DifferentialLp> seq;
    seq.push_back(h1);
    seq.push_back(perturbCosts(h1, seed + 2, repeatCosts));
    seq.push_back(v1);
    seq.push_back(perturbCosts(v1, seed + 3, repeatCosts));
    sequences.push_back(std::move(seq));
  }

  Harness h(args.harnessOptions("mcf"));
  h.param("sequences", static_cast<std::int64_t>(kSequences));
  h.param("fills_per_lp", static_cast<std::int64_t>(kFills));
  Series& seconds = h.series("solver_s", "s");
  Series& nsPerSolve = h.series("solver_ns_per_solve", "ns");

  const std::uint64_t reference = sspHash(sequences);
  bool matchesSsp = true;
  SolverRun last;
  h.runInterleaved({[&] {
    last = replay(sequences);
    if (last.xHash != reference) matchesSsp = false;
    const auto solves = static_cast<double>(last.solves);
    seconds.record(last.seconds);
    nsPerSolve.record(last.seconds * 1e9 / solves);
  }});

  std::printf("== MCF replay: %d sequences x 4 solves, %d fills each, "
              "%d reps + %d warmup ==\n",
              kSequences, kFills, args.reps, args.warmup);
  std::printf("  %8.3f ms  %6lld solves  %7.0f ns/solve\n",
              last.seconds * 1e3, last.solves,
              last.seconds * 1e9 / static_cast<double>(last.solves));
  std::printf("  solutions %s\n",
              matchesSsp ? "MATCH SSP" : "DIVERGED FROM SSP (BUG!)");

  h.check("matches_ssp", matchesSsp);
  return h.finish();
}

// Reproduces paper Table 2: benchmark statistics (#polygons, #layers, file
// size) and the alpha/beta scoring coefficients for each suite.
//
// The suites are the scaled synthetic analogues of the contest designs
// (see DESIGN.md Section 2); the columns match Table 2's schema. The
// harness records per-suite generation time and emits BENCH_table2.json.
//
// Usage: bench_table2 [reps] [--reps N] [--warmup N] [--out F]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "contest/report.hpp"

using namespace ofl;

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

  Harness h(args.harnessOptions("table2"));
  std::printf("== Table 2: benchmark statistics (scaled suites) ==\n");
  std::vector<contest::SuiteStats> stats;
  h.runInterleaved({[&] {
    stats.clear();
    for (const std::string suite : {"s", "b", "m"}) {
      const contest::BenchmarkSpec spec =
          contest::BenchmarkGenerator::spec(suite);
      Timer t;
      const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
      h.series("generate_" + suite + "_s", "s").record(t.elapsedSeconds());
      contest::SuiteStats row;
      row.design = suite;
      row.polygons = chip.wireCount();
      row.layers = chip.numLayers();
      row.wireFileMB = static_cast<double>(chip.gdsStreamSize()) / 1e6;
      row.table = contest::scoreTableFor(suite);
      stats.push_back(row);
    }
  }});
  contest::printTable2(stats);
  for (const contest::SuiteStats& row : stats) {
    h.series("polygons_" + row.design, "count", Direction::kHigherIsBetter,
             Scale::kRatio)
        .record(static_cast<double>(row.polygons));
  }
  h.check("suites_generated", stats.size() == 3);
  return h.finish();
}

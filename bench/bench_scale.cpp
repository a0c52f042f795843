// Contest-scale streaming benchmark (ISSUE 9 tentpole).
//
// Generates a suite streamingly (default "xl", millions of wires — never
// materialized in memory), runs the bounded-memory sharded fill
// (fill::ShardedEngine) under a fixed --budget, and records wall time,
// peak RSS, spill figures to BENCH_scale.json via the shared
// harness (default 1 rep + 0 warmup — the run is minutes long).
//
// The memory budget is a HARD assertion: the process exits nonzero when
// peak RSS exceeds it, so CI catches a regression that quietly
// re-materializes the layout.
//
// Usage: bench_scale [suite] [reps] [--budget MIB] [--threads N]
//        [--reps N] [--warmup N] [--out F]
//   suite    s|b|m|xl (default xl)
//   --budget RSS ceiling in MiB, default 512
//   --threads engine threads, default 0 (= hardware)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/memory_usage.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/stream_writer.hpp"

using namespace ofl;

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "xl", /*reps=*/1,
                                          /*warmup=*/0);
  std::size_t budgetMiB = 512;
  int threads = 0;
  for (std::size_t i = 0; i + 1 < args.positional.size(); ++i) {
    if (args.positional[i] == "--budget") {
      budgetMiB = static_cast<std::size_t>(
          std::atoll(args.positional[i + 1].c_str()));
    } else if (args.positional[i] == "--threads") {
      threads = std::atoi(args.positional[i + 1].c_str());
    }
  }

  const contest::BenchmarkSpec spec =
      contest::BenchmarkGenerator::spec(args.suite);
  const std::string inputPath = "bench_scale_" + args.suite + ".gds";
  const std::string outputPath = "bench_scale_" + args.suite + "_filled.gds";

  std::printf("== Contest-scale streaming fill: suite %s, budget %zu MiB ==\n",
              spec.name.c_str(), budgetMiB);

  // Streamed generation: O(1) memory regardless of suite size.
  Timer genTimer;
  std::size_t wires = 0;
  long long inputBytes = -1;
  {
    gds::StreamWriter writer(inputPath);
    if (!writer.ok()) {
      std::fprintf(stderr, "bench_scale: cannot write %s\n",
                   inputPath.c_str());
      return 1;
    }
    writer.beginCell("TOP");
    contest::BenchmarkGenerator::generateStream(
        spec, [&](int l, const geom::Rect& wire) {
          writer.addRect(static_cast<std::int16_t>(l + 1), wire);
          ++wires;
        });
    writer.endCell();
    inputBytes = writer.finish();
  }
  if (inputBytes < 0) {
    std::fprintf(stderr, "bench_scale: write failed: %s\n", inputPath.c_str());
    return 1;
  }
  const double genSeconds = genTimer.elapsedSeconds();
  std::printf("generated %zu wires (%lld bytes) in %.2fs, RSS %.0f MiB\n",
              wires, inputBytes, genSeconds, peakMemoryMiB());

  fill::ShardedOptions options;
  options.engine.windowSize = spec.windowSize;
  options.engine.rules = spec.rules;
  options.engine.numThreads = threads;
  options.memBudgetMiB = budgetMiB;

  Harness h(args.harnessOptions("scale"));
  h.param("suite", spec.name);
  h.param("wires", static_cast<std::int64_t>(wires));
  h.param("input_bytes", static_cast<std::int64_t>(inputBytes));
  h.param("mem_budget_mib", static_cast<std::int64_t>(budgetMiB));

  Series& genS = h.series("generate_s", "s");
  genS.record(genSeconds);
  Series& wallS = h.series("wall_s", "s");
  Series& ingestS = h.series("ingest_s", "s");
  Series& outputS = h.series("output_s", "s");

  fill::ShardedReport report;
  bool ranOk = true;
  bool budgetHeld = true;
  h.runInterleaved({[&] {
    Timer fillTimer;
    std::string error;
    if (!fill::ShardedEngine(options).runFile(
            inputPath, outputPath, std::optional<geom::Rect>(spec.die),
            &report, &error)) {
      std::fprintf(stderr, "bench_scale: %s\n", error.c_str());
      ranOk = false;
      return;
    }
    wallS.record(fillTimer.elapsedSeconds());
    ingestS.record(report.ingestSeconds);
    outputS.record(report.outputSeconds);
    const double peakMiB = peakMemoryMiB();
    if (peakMiB > static_cast<double>(budgetMiB)) budgetHeld = false;
  }});

  const double peakMiB = peakMemoryMiB();
  if (ranOk) {
    std::printf(
        "filled: %zu fills from %zu candidates\n"
        "  %d rows (%d cols), ingest %.2fs, output %.2fs\n"
        "  spilled %.1f MiB in %llu events, output %lld bytes\n"
        "  peak RSS %.0f MiB vs budget %zu MiB -> %s\n",
        report.fill.fillCount, report.fill.candidateCount, report.rows,
        report.cols, report.ingestSeconds, report.outputSeconds,
        static_cast<double>(report.spilledBytes) / (1 << 20),
        static_cast<unsigned long long>(report.spillEvents),
        report.outputBytes, peakMiB, budgetMiB,
        budgetHeld ? "OK" : "OVER BUDGET");
    h.param("fills", static_cast<std::int64_t>(report.fill.fillCount));
    h.param("candidates",
            static_cast<std::int64_t>(report.fill.candidateCount));
    h.param("threads", static_cast<std::int64_t>(report.fill.threadsUsed));
    h.param("spilled_bytes", static_cast<std::int64_t>(report.spilledBytes));
    h.param("output_bytes", static_cast<std::int64_t>(report.outputBytes));
  }

  // The multi-hundred-MB artifacts have served their purpose.
  std::remove(inputPath.c_str());
  std::remove(outputPath.c_str());

  h.check("fill_ok", ranOk);
  h.check("budget_held", budgetHeld);
  return h.finish();
}

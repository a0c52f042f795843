// Observability overhead study: one contest benchmark, single-threaded,
// run with collection off and on (interleaved inside every harness rep).
// The contract under test:
//
//   1. Fills are BIT-IDENTICAL in every configuration (observability can
//      never perturb the product), and
//   2. disabled probes cost <= 2% of engine wall time.
//
// Wall-clock deltas between two runs of the *same* disabled binary are
// dominated by machine noise (several percent on shared CI runners), so
// the disabled-probe budget is checked directly instead: a microbenchmark
// times the disabled ScopedSpan/metricsEnabled probe (one relaxed atomic
// load each), and the per-run cost is bounded as
//   probes-per-run (counted from the enabled run's trace) x ns-per-probe
// against the disabled engine wall time. The enabled-vs-disabled wall
// ratio is reported as well (informational -- tracing pays for real
// buffer appends).
//
// Results go to BENCH_obs.json; exits nonzero on fill divergence or a
// busted probe budget.
//
// Usage: bench_obs [suite] [reps] [--reps N] [--warmup N] [--out F]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace ofl;

namespace {

// Order-sensitive fingerprint of the fill solution (same scheme as
// bench_hotpath): identical hashes mean bit-identical fill lists.
std::uint64_t fillHash(const layout::Layout& chip) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over fill coords
  auto mix = [&h](geom::Coord v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (int l = 0; l < chip.numLayers(); ++l) {
    for (const geom::Rect& f : chip.layer(l).fills) {
      mix(f.xl);
      mix(f.yl);
      mix(f.xh);
      mix(f.yh);
    }
  }
  return h;
}

struct Sample {
  double wall = 0.0;
  std::size_t fills = 0;
  std::uint64_t hash = 0;
};

Sample runOnce(const layout::Layout& original,
               const contest::BenchmarkSpec& spec, bool collect) {
  obs::Tracer::instance().clear();
  obs::Tracer::instance().setEnabled(collect);
  obs::MetricsRegistry::instance().reset();
  obs::MetricsRegistry::instance().setEnabled(collect);

  layout::Layout chip = original;
  fill::FillEngineOptions o;
  o.windowSize = spec.windowSize;
  o.rules = spec.rules;
  o.numThreads = 1;

  Sample s;
  Timer t;
  const fill::FillReport report = fill::FillEngine(o).run(chip);
  s.wall = t.elapsedSeconds();
  s.fills = report.fillCount;
  s.hash = fillHash(chip);

  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  return s;
}

// Nanoseconds per disabled probe pair (one ScopedSpan + one
// metricsEnabled() check -- the shape of every gated site). The volatile
// sink stops the optimizer from hoisting the enabled_ load out of the
// loop entirely.
double disabledProbeNanos() {
  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  constexpr int kIters = 5'000'000;
  volatile bool sink = false;
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedSpan span("bench.noop", "bench");
    sink = sink || obs::metricsEnabled();
  }
  return t.elapsedSeconds() * 1e9 / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "s", 3);
  const contest::BenchmarkSpec spec =
      contest::BenchmarkGenerator::spec(args.suite);
  const layout::Layout original = contest::BenchmarkGenerator::generate(spec);
  std::printf("== Observability overhead: suite %s, %zu wires, 1 thread, "
              "%d reps + %d warmup ==\n",
              spec.name.c_str(), original.wireCount(), args.reps,
              args.warmup);

  Harness h(args.harnessOptions("obs"));
  h.param("suite", spec.name);
  h.param("threads", static_cast<std::int64_t>(1));

  Series& wallOff = h.series("wall_disabled_s", "s");
  Series& wallOn = h.series("wall_enabled_s", "s");
  Series& probeNs = h.series("disabled_probe_ns", "ns");

  std::uint64_t hash = 0;
  std::size_t fills = 0;
  std::size_t tracedEvents = 0;
  bool haveRef = false;
  bool identical = true;
  const auto note = [&](const Sample& s) {
    if (!haveRef) {
      hash = s.hash;
      fills = s.fills;
      haveRef = true;
    } else if (s.hash != hash || s.fills != fills) {
      identical = false;
    }
  };
  h.runInterleaved({
      [&] {
        const Sample a = runOnce(original, spec, /*collect=*/false);
        note(a);
        wallOff.record(a.wall);
      },
      [&] {
        const Sample b = runOnce(original, spec, /*collect=*/true);
        note(b);
        tracedEvents = obs::Tracer::instance().eventCount();
        wallOn.record(b.wall);
      },
      [&] { probeNs.record(disabledProbeNanos()); },
  });

  const SeriesStats offStats = computeStats(wallOff.samples());
  const SeriesStats onStats = computeStats(wallOn.samples());
  const SeriesStats probeStats = computeStats(probeNs.samples());
  const double enabledOverhead =
      onStats.mean / std::max(offStats.mean, 1e-9) - 1.0;

  // Disabled-probe budget: every span recorded by the enabled run is one
  // probe site the disabled run also crossed (x2 for the metrics gates
  // that accompany most spans, conservatively).
  const double probeSeconds =
      static_cast<double>(tracedEvents) * 2.0 * probeStats.mean * 1e-9;
  const double disabledOverhead = probeSeconds / std::max(offStats.mean, 1e-9);

  std::printf("disabled: %.4fs, enabled: %.4fs (%zu trace events), "
              "enabled overhead %.2f%% (informational)\n",
              offStats.mean, onStats.mean, tracedEvents,
              100.0 * enabledOverhead);
  std::printf("disabled probe: %.2f ns x %zu sites x2 = %.2f us/run = "
              "%.5f%% of wall (budget 2%%); output %s\n",
              probeStats.mean, tracedEvents, probeSeconds * 1e6,
              100.0 * disabledOverhead,
              identical ? "BIT-IDENTICAL" : "DIVERGED (BUG!)");

  // Both percentages are derived from wall timings, so they gate only on
  // the baseline's machine, like the timings themselves. Each is recorded
  // once per rep, from that rep's wall times (and, for the disabled one,
  // its probe timing), so bench-compare gates a distribution, not one
  // derived sample; the printed enabled figure stays the ratio of means.
  Series& disabledPct = h.series("disabled_overhead_pct", "%");
  Series& enabledPct = h.series("enabled_overhead_pct", "%");
  for (std::size_t r = 0; r < wallOff.samples().size(); ++r) {
    const double off = std::max(wallOff.samples()[r], 1e-9);
    disabledPct.record(100.0 * static_cast<double>(tracedEvents) * 2.0 *
                       probeNs.samples()[r] * 1e-9 / off);
    enabledPct.record(100.0 * (wallOn.samples()[r] / off - 1.0));
  }
  h.param("trace_events", static_cast<std::int64_t>(tracedEvents));
  h.param("fill_count", static_cast<std::int64_t>(fills));

  h.check("identical", identical);
  h.check("disabled_probe_budget", disabledOverhead <= 0.02);
  return h.finish();
}

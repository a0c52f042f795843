#include "cli/commands.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "common/json_util.hpp"
#include "common/memory_usage.hpp"
#include "common/prof.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "contest/evaluator.hpp"
#include "contest/json_report.hpp"
#include "contest/report.hpp"
#include "baselines/tile_lp_filler.hpp"
#include "baselines/monte_carlo_filler.hpp"
#include "baselines/greedy_filler.hpp"
#include "density/heatmap.hpp"
#include "density/metrics.hpp"
#include "fill/fill_engine.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_writer.hpp"
#include "layout/drc_checker.hpp"
#include "layout/gds_compact.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "service/fill_service.hpp"
#include "service/layout_io.hpp"
#include "service/manifest.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/repro.hpp"

namespace ofl::cli {
namespace {

// Every command body runs under this guard: a malformed option value
// (Args::getIntChecked and friends) surfaces as a one-line error naming
// the option and exit status 2, instead of silently running with a
// half-parsed number.
template <typename Fn>
int guarded(const char* command, Fn&& body) {
  try {
    return body();
  } catch (const ArgError& e) {
    std::fprintf(stderr, "%s: %s\n", command, e.what());
    return 2;
  } catch (const std::invalid_argument& e) {  // e.g. an unknown --suite
    std::fprintf(stderr, "%s: %s\n", command, e.what());
    return 2;
  }
}

// --profile / --profile-json FILE (fill and batch): turn on the hot-path
// registry for this invocation. The registry is process-global, so the CLI
// resets it here and the run's snapshot covers exactly this command.
bool profilingRequested(const Args& args) {
  return args.hasFlag("profile") || args.get("profile-json").has_value();
}

void enableProfiling() {
  prof::Registry::instance().setEnabled(true);
  prof::Registry::instance().reset();
}

// Human table to stderr (keeps stdout parseable), JSON to --profile-json.
int emitProfile(const char* command, const Args& args,
                const prof::Snapshot& snapshot) {
  if (args.hasFlag("profile")) {
    std::fputs(snapshot.human().c_str(), stderr);
  }
  if (const auto path = args.get("profile-json");
      path.has_value() && !path->empty()) {
    FILE* f = std::fopen(path->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", command, path->c_str());
      return 1;
    }
    std::fputs(snapshot.json().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}

// --trace FILE / --metrics-out FILE / --metrics-prom FILE (fill and
// batch): observability collection for this invocation. Like --profile,
// the tracer and metrics registry are process-global, so the CLI clears
// them here and the artifacts cover exactly this command. Enabling
// metrics also enables the prof registry: the snapshot absorbs the stage
// timers as prof.* gauges.
struct ObsRequest {
  std::string tracePath;
  std::string metricsJsonPath;
  std::string metricsPromPath;
  bool tracing() const { return !tracePath.empty(); }
  bool metrics() const {
    return !metricsJsonPath.empty() || !metricsPromPath.empty();
  }
  bool any() const { return tracing() || metrics(); }
};

ObsRequest obsRequestFrom(const Args& args) {
  ObsRequest req;
  req.tracePath = args.getOr("trace", "");
  req.metricsJsonPath = args.getOr("metrics-out", "");
  req.metricsPromPath = args.getOr("metrics-prom", "");
  return req;
}

void enableObservability(const ObsRequest& req) {
  if (req.tracing()) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(true);
  }
  if (req.metrics()) {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().setEnabled(true);
    obs::registerCoreSeries();  // stable snapshot schema: zero > absent
    enableProfiling();
  }
}

bool writeTextFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

// Snapshot the metrics registry (prof + process gauges refreshed first)
// into the requested JSON/Prometheus files. Safe to call repeatedly (the
// batch periodic dump overwrites in place).
int writeMetricsSnapshot(const char* command, const ObsRequest& req) {
  obs::absorbProf(prof::Registry::instance().snapshot());
  obs::updateProcessGauges();
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  int rc = 0;
  if (!req.metricsJsonPath.empty() &&
      !writeTextFile(req.metricsJsonPath, snap.json())) {
    std::fprintf(stderr, "%s: cannot write %s\n", command,
                 req.metricsJsonPath.c_str());
    rc = 1;
  }
  if (!req.metricsPromPath.empty() &&
      !writeTextFile(req.metricsPromPath, snap.prometheus())) {
    std::fprintf(stderr, "%s: cannot write %s\n", command,
                 req.metricsPromPath.c_str());
    rc = 1;
  }
  return rc;
}

// Final artifact emission: metrics snapshot, then the trace (collection
// stopped first so the write itself is not traced).
int emitObservability(const char* command, const ObsRequest& req) {
  int rc = 0;
  if (req.metrics()) {
    rc = writeMetricsSnapshot(command, req);
    obs::MetricsRegistry::instance().setEnabled(false);
  }
  if (req.tracing()) {
    obs::Tracer::instance().setEnabled(false);
    if (!obs::Tracer::instance().writeChromeJson(req.tracePath)) {
      std::fprintf(stderr, "%s: cannot write %s\n", command,
                   req.tracePath.c_str());
      rc = 1;
    }
  }
  return rc;
}

layout::DesignRules rulesFrom(const Args& args) {
  // Fallbacks shared with the batch manifest parser, so `openfill fill`
  // and a manifest line agree byte for byte.
  layout::DesignRules rules = service::defaultEngineOptions().rules;
  rules.minWidth = args.getIntChecked("min-width", rules.minWidth);
  rules.minSpacing = args.getIntChecked("min-spacing", rules.minSpacing);
  rules.minArea = args.getIntChecked("min-area", rules.minArea);
  rules.maxFillSize = args.getIntChecked("max-fill", rules.maxFillSize);
  return rules;
}

bool parseDie(const Args& args, std::optional<geom::Rect>* die,
              std::string* error) {
  if (const auto dieSpec = args.get("die"); dieSpec.has_value()) {
    long long xl, yl, xh, yh;
    if (std::sscanf(dieSpec->c_str(), "%lld,%lld,%lld,%lld", &xl, &yl, &xh,
                    &yh) != 4) {
      *error = "--die expects xl,yl,xh,yh";
      return false;
    }
    *die = geom::Rect{xl, yl, xh, yh};
  }
  return true;
}

// Loads a layout from GDS or OFL-OASIS (auto-detected); die from
// --die "xl,yl,xh,yh" or the shape bbox.
bool loadLayout(const Args& args, layout::Layout& out, std::string* error) {
  const auto path = args.get("in");
  if (!path.has_value() || path->empty()) {
    *error = "missing --in <file.gds>";
    return false;
  }
  std::optional<geom::Rect> die;
  if (!parseDie(args, &die, error)) return false;
  return service::loadFlatLayout(*path, die, &out, error);
}

int generateImpl(const Args& args) {
  const std::string suite = args.getOr("suite", "s");
  const std::string out = args.getOr("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: missing --out\n");
    return 2;
  }
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec(suite);
  if (suite == "xl" || args.hasFlag("stream")) {
    // Contest scale: stream wires straight to disk instead of holding the
    // layout (xl would need gigabytes). Identical bytes to the in-memory
    // path — same generator RNG order, same record encoders.
    gds::StreamWriter writer(out);
    if (!writer.ok()) {
      std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
      return 1;
    }
    writer.beginCell("TOP");
    std::size_t wires = 0;
    contest::BenchmarkGenerator::generateStream(
        spec, [&](int l, const geom::Rect& wire) {
          writer.addRect(static_cast<std::int16_t>(l + 1), wire);
          ++wires;
        });
    writer.endCell();
    const long long bytes = writer.finish();
    if (bytes < 0) {
      std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("generated suite %s (streamed): %zu wires, %d layers, die "
                "%s, %lld bytes -> %s\n",
                spec.name.c_str(), wires, spec.numLayers,
                spec.die.str().c_str(), bytes, out.c_str());
    return 0;
  }
  const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  const long long bytes = chip.writeGds(out);
  if (bytes < 0) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("generated suite %s: %zu wires, %d layers, die %s, %lld bytes "
              "-> %s\n",
              spec.name.c_str(), chip.wireCount(), chip.numLayers(),
              chip.die().str().c_str(), bytes, out.c_str());
  return 0;
}

// Engine options from CLI flags, shared by `fill` and `check` so a
// solution verifies under exactly the options that produced it.
bool engineOptionsFrom(const Args& args, fill::FillEngineOptions& options,
                       std::string* error) {
  options = service::defaultEngineOptions();
  options.rules = rulesFrom(args);
  options.windowSize = args.getIntChecked("window", options.windowSize);
  options.candidate.lambda =
      args.getDoubleChecked("lambda", options.candidate.lambda);
  options.candidate.gamma =
      args.getDoubleChecked("gamma", options.candidate.gamma);
  options.sizer.eta = args.getDoubleChecked("eta", options.sizer.eta);
  options.sizer.iterations = static_cast<int>(
      args.getIntChecked("iterations", options.sizer.iterations));
  options.numThreads =
      static_cast<int>(args.getIntChecked("threads", options.numThreads));
  const std::string backend = args.getOr("backend", "ns");
  if (backend == "ssp") {
    options.sizer.backend = mcf::McfBackend::kSuccessiveShortestPath;
  } else if (backend == "lp") {
    options.sizer.useLpSolver = true;
  } else if (backend != "ns") {
    *error = "unknown --backend " + backend;
    return false;
  }
  return true;
}

// `fill --json`: one-line machine-readable run summary on stdout (peak
// RSS, wall time, output size, grid and spill figures for --stream, layout
// read and write time in memory).
void printFillJson(const fill::FillReport& report, double seconds,
                   long long bytes, const fill::ShardedReport* sharded,
                   double readSeconds = 0.0, double writeSeconds = 0.0) {
  std::ostringstream json;
  json << "{\"fills\": " << report.fillCount
       << ", \"candidates\": " << report.candidateCount
       << ", \"seconds\": " << seconds
       << ", \"output_bytes\": " << bytes
       << ", \"threads\": " << report.threadsUsed
       << ", \"peak_rss_mib\": " << peakMemoryMiB();
  if (sharded != nullptr) {
    json << ", \"stream\": true, \"rows\": " << sharded->rows
         << ", \"spilled_bytes\": " << sharded->spilledBytes
         << ", \"spill_events\": " << sharded->spillEvents
         << ", \"wires\": " << sharded->wireCount
         << ", \"ingest_seconds\": " << sharded->ingestSeconds
         << ", \"output_seconds\": " << sharded->outputSeconds;
  } else {
    json << ", \"stream\": false, \"read_seconds\": " << readSeconds
         << ", \"write_seconds\": " << writeSeconds;
  }
  json << "}";
  std::printf("%s\n", json.str().c_str());
}

// Run summary into the fill.* metrics series (satellite of the streaming
// PR: peak RSS was previously only visible in contest score runs).
void recordFillMetrics(double seconds, long long bytes) {
  if (!obs::metricsEnabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.gauge("fill.peak_rss_mib").set(peakMemoryMiB());
  reg.gauge("fill.seconds").set(seconds);
  reg.gauge("fill.output_bytes").set(static_cast<double>(bytes));
}

int fillImpl(const Args& args) {
  // Every option fill reads: a typo or a removed flag is an error rather
  // than a silently ignored no-op.
  const std::vector<std::string> unknown = args.unknownKeys(
      {"in", "out", "die", "format", "compact", "json", "suite", "stream",
       "mem-budget-mb", "window", "lambda", "gamma", "eta",
       "iterations", "threads", "backend", "min-width", "min-spacing",
       "min-area", "max-fill", "profile", "profile-json", "trace",
       "metrics-out", "metrics-prom"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "fill: unknown option --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  const std::string out = args.getOr("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "fill: missing --out\n");
    return 2;
  }
  std::string error;
  fill::FillEngineOptions options;
  if (!engineOptionsFrom(args, options, &error)) {
    std::fprintf(stderr, "fill: %s\n", error.c_str());
    return 2;
  }
  const std::string format = args.getOr("format", "gds");
  if (format != "gds" && format != "oasis") {
    std::fprintf(stderr, "fill: unknown --format %s (gds|oasis)\n",
                 format.c_str());
    return 2;
  }

  if (args.hasFlag("stream")) {
    // Bounded-memory path: never loads the layout; byte-identical output.
    if (args.hasFlag("compact")) {
      std::fprintf(stderr, "fill: --compact is not supported with --stream\n");
      return 2;
    }
    if (format == "oasis") {
      std::fprintf(stderr,
                   "fill: --format oasis is not supported with --stream\n");
      return 2;
    }
    const auto in = args.get("in");
    if (!in.has_value() || in->empty()) {
      std::fprintf(stderr, "fill: missing --in <file.gds>\n");
      return 2;
    }
    std::optional<geom::Rect> die;
    if (!parseDie(args, &die, &error)) {
      std::fprintf(stderr, "fill: %s\n", error.c_str());
      return 2;
    }
    fill::ShardedOptions sharded;
    sharded.engine = options;
    sharded.memBudgetMiB = static_cast<std::size_t>(
        args.getIntChecked("mem-budget-mb", 512));
    const bool profiling = profilingRequested(args);
    if (profiling) enableProfiling();
    const ObsRequest obsReq = obsRequestFrom(args);
    enableObservability(obsReq);

    Timer timer;
    fill::ShardedReport report;
    if (!fill::ShardedEngine(sharded).runFile(*in, out, die, &report,
                                              &error)) {
      std::fprintf(stderr, "fill: %s\n", error.c_str());
      return 1;
    }
    const double seconds = timer.elapsedSeconds();
    recordFillMetrics(seconds, report.outputBytes);
    if (args.hasFlag("json")) {
      printFillJson(report.fill, seconds, report.outputBytes, &report);
    } else {
      std::printf(
          "filled (streamed): %zu fills (%zu candidates) in %.2fs "
          "(%d rows, %.1f MiB spilled, peak RSS %.0f MiB), "
          "%lld bytes -> %s\n",
          report.fill.fillCount, report.fill.candidateCount, seconds,
          report.rows,
          static_cast<double>(report.spilledBytes) / (1 << 20),
          peakMemoryMiB(), report.outputBytes, out.c_str());
    }
    int rc = 0;
    if (obsReq.any()) rc = emitObservability("fill", obsReq);
    if (profiling) {
      const int prc = emitProfile("fill", args, report.fill.profile);
      if (prc != 0) return prc;
    }
    return rc;
  }

  const bool profiling = profilingRequested(args);
  if (profiling) enableProfiling();
  const ObsRequest obsReq = obsRequestFrom(args);
  enableObservability(obsReq);

  Timer readTimer;
  layout::Layout chip({}, 0);
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "fill: %s\n", error.c_str());
    return 2;
  }
  const double readSeconds = readTimer.elapsedSeconds();

  Timer timer;
  const fill::FillReport report = fill::FillEngine(options).run(chip);
  Timer writeTimer;
  const long long bytes = service::writeLayout(
      chip, out,
      format == "oasis" ? service::OutputFormat::kOasis
                        : service::OutputFormat::kGds,
      args.hasFlag("compact"));
  const double writeSeconds = writeTimer.elapsedSeconds();
  if (bytes < 0) {
    std::fprintf(stderr, "fill: cannot write %s\n", out.c_str());
    return 1;
  }
  const double seconds = timer.elapsedSeconds();
  recordFillMetrics(seconds, bytes);
  if (args.hasFlag("json")) {
    printFillJson(report, seconds, bytes, nullptr, readSeconds, writeSeconds);
  } else {
    std::printf(
        "filled: %zu fills (%zu candidates) in %.2fs "
        "(plan %.2fs, candidates %.2fs, sizing %.2fs), %lld bytes -> %s\n",
        report.fillCount, report.candidateCount, seconds,
        report.planningSeconds, report.candidateSeconds,
        report.sizingSeconds, bytes, out.c_str());
  }
  int rc = 0;
  if (obsReq.metrics()) {
    // Per-term score decomposition (Eqns. 3-4) into the quality channel,
    // so the metrics artifact explains the score, not just the runtime.
    const std::string suite = args.getOr("suite", "s");
    const contest::Evaluator evaluator(
        options.windowSize, contest::scoreTableFor(suite), options.rules);
    const contest::RawMetrics raw = evaluator.measure(chip);
    const contest::ScoreBreakdown sb =
        evaluator.score(raw, seconds, peakMemoryMiB());
    obs::recordScoreTerms(sb.overlay, sb.variation, sb.line, sb.outlier,
                          sb.size, sb.quality, sb.total);
  }
  if (obsReq.any()) rc = emitObservability("fill", obsReq);
  if (profiling) {
    const int prc = emitProfile("fill", args, report.profile);
    if (prc != 0) return prc;
  }
  return rc;
}

int evaluateImpl(const Args& args) {
  layout::Layout chip({}, 0);
  std::string error;
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "evaluate: %s\n", error.c_str());
    return 2;
  }
  const std::string suite = args.getOr("suite", "s");
  const geom::Coord window = args.getIntChecked("window", 1200);
  const contest::Evaluator evaluator(window, contest::scoreTableFor(suite),
                                     rulesFrom(args));
  const contest::RawMetrics raw = evaluator.measure(chip);
  const double runtime = args.getDoubleChecked("runtime", 0.0);
  const double memory = args.getDoubleChecked("memory", peakMemoryMiB());
  const contest::ScoreBreakdown s = evaluator.score(raw, runtime, memory);

  std::printf("raw: overlay=%.0f variation=%.6f line=%.4f outlier=%.6f "
              "size=%.2fMB fills=%zu drc=%zu\n",
              raw.overlay, raw.variation, raw.line, raw.outlier,
              raw.fileSizeMB, raw.fillCount, raw.drcViolations);
  std::printf("scores: overlay=%.3f variation=%.3f line=%.3f outlier=%.3f "
              "size=%.3f runtime=%.3f memory=%.3f\n",
              s.overlay, s.variation, s.line, s.outlier, s.size, s.runtime,
              s.memory);
  std::printf("testcase quality=%.3f score=%.3f\n", s.quality, s.total);
  return 0;
}

int drcImpl(const Args& args) {
  layout::Layout chip({}, 0);
  std::string error;
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "drc: %s\n", error.c_str());
    return 2;
  }
  const auto limit =
      static_cast<std::size_t>(args.getIntChecked("max-violations", 100));
  const auto violations =
      layout::DrcChecker(rulesFrom(args)).check(chip, limit);
  for (const auto& v : violations) {
    std::printf("VIOLATION %s\n", v.str().c_str());
  }
  std::printf("%zu violation(s)%s\n", violations.size(),
              violations.size() >= limit ? " (capped)" : "");
  return violations.empty() ? 0 : 1;
}

// Shell-style glob match (`*` any run, `?` any one char) with greedy `*`
// backtracking — enough for `--require 'bench.*'` patterns.
bool globMatch(const std::string& pattern, const std::string& text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, starT = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      starT = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++starT;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

// `openfill stats --metrics FILE`: pretty-print a --metrics-out snapshot
// and optionally (--require a,b,c) fail when named series are absent —
// CI uses this to assert an observability artifact is complete.
int metricsStatsImpl(const Args& args, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "stats: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = json::Value::parse(buffer.str());
  if (!doc.has_value() || !doc->isObject()) {
    std::fprintf(stderr, "stats: %s is not a JSON metrics snapshot\n",
                 path.c_str());
    return 2;
  }

  const json::Value* counters = doc->find("counters");
  const json::Value* gauges = doc->find("gauges");
  const json::Value* histograms = doc->find("histograms");
  const auto sectionHas = [](const json::Value* section,
                             const std::string& name) {
    return section != nullptr && section->isObject() &&
           section->find(name) != nullptr;
  };

  if (counters != nullptr && counters->isObject() &&
      !counters->object.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, v] : counters->object) {
      std::printf("  %-36s %14.0f\n", name.c_str(), v.number);
    }
  }
  if (gauges != nullptr && gauges->isObject() && !gauges->object.empty()) {
    std::printf("gauges:\n");
    for (const auto& [name, v] : gauges->object) {
      std::printf("  %-36s %14.6g\n", name.c_str(), v.number);
    }
  }
  if (histograms != nullptr && histograms->isObject() &&
      !histograms->object.empty()) {
    std::printf("%-38s %10s %12s %12s %12s\n", "histogram", "count", "p50",
                "p95", "p99");
    for (const auto& [name, h] : histograms->object) {
      const auto field = [&h](const char* key) {
        const json::Value* v = h.find(key);
        return v != nullptr ? v->number : 0.0;
      };
      std::printf("  %-36s %10.0f %12.6g %12.6g %12.6g\n", name.c_str(),
                  field("count"), field("p50"), field("p95"), field("p99"));
    }
  }

  if (const auto require = args.get("require"); require.has_value()) {
    // Patterns may use shell-style globs: `--require 'bench.*'` asserts
    // at least one series under the bench. prefix exists.
    const auto sectionGlob = [](const json::Value* section,
                                const std::string& pattern) {
      if (section == nullptr || !section->isObject()) return false;
      for (const auto& [name, v] : section->object) {
        (void)v;
        if (globMatch(pattern, name)) return true;
      }
      return false;
    };
    int missing = 0;
    std::stringstream list(*require);
    std::string name;
    while (std::getline(list, name, ',')) {
      if (name.empty()) continue;
      const bool isGlob = name.find_first_of("*?") != std::string::npos;
      const bool found =
          isGlob ? (sectionGlob(counters, name) || sectionGlob(gauges, name) ||
                    sectionGlob(histograms, name))
                 : (sectionHas(counters, name) || sectionHas(gauges, name) ||
                    sectionHas(histograms, name));
      if (!found) {
        std::fprintf(stderr, "stats: missing metric series: %s\n",
                     name.c_str());
        ++missing;
      }
    }
    if (missing > 0) return 1;
  }
  return 0;
}

int statsImpl(const Args& args) {
  if (const auto metricsPath = args.get("metrics");
      metricsPath.has_value() && !metricsPath->empty()) {
    return metricsStatsImpl(args, *metricsPath);
  }
  layout::Layout chip({}, 0);
  std::string error;
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "stats: %s\n", error.c_str());
    return 2;
  }
  std::printf("die: %s  layers: %d\n", chip.die().str().c_str(),
              chip.numLayers());
  for (int l = 0; l < chip.numLayers(); ++l) {
    geom::Area wireArea = 0;
    geom::Area fillArea = 0;
    for (const auto& r : chip.layer(l).wires) wireArea += r.area();
    for (const auto& r : chip.layer(l).fills) fillArea += r.area();
    std::printf("layer %d: %zu wires (%lld DBU^2), %zu fills (%lld DBU^2)\n",
                l + 1, chip.layer(l).wires.size(),
                static_cast<long long>(wireArea), chip.layer(l).fills.size(),
                static_cast<long long>(fillArea));
  }
  const gds::Library flat = chip.toGds();
  std::printf("GDS stream size: %lld bytes; OFL-OASIS: %lld bytes; "
              "compact GDS: %lld bytes\n",
              gds::Writer::streamSize(flat),
              gds::OasisWriter::streamSize(flat),
              gds::Writer::streamSize(layout::toCompactGds(chip)));
  return 0;
}

int heatmapImpl(const Args& args) {
  layout::Layout chip({}, 0);
  std::string error;
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "heatmap: %s\n", error.c_str());
    return 2;
  }
  const geom::Coord window = args.getIntChecked("window", 1200);
  const auto layer = static_cast<int>(args.getIntChecked("layer", 1)) - 1;
  if (layer < 0 || layer >= chip.numLayers()) {
    std::fprintf(stderr, "heatmap: layer out of range (1..%d)\n",
                 chip.numLayers());
    return 2;
  }
  const layout::WindowGrid grid(chip.die(), window);
  const density::DensityMap map = density::DensityMap::compute(chip, layer, grid);
  if (const auto csv = args.get("csv"); csv.has_value() && !csv->empty()) {
    if (!density::writeCsv(map, *csv)) {
      std::fprintf(stderr, "heatmap: cannot write %s\n", csv->c_str());
      return 1;
    }
    std::printf("wrote %dx%d density CSV -> %s\n", map.cols(), map.rows(),
                csv->c_str());
    return 0;
  }
  density::HeatmapOptions options;
  options.autoscale = args.hasFlag("autoscale");
  std::fputs(density::renderAscii(map, options).c_str(), stdout);
  const density::DensityMetrics m = density::computeMetrics(map);
  std::printf("layer %d: mean=%.3f sigma=%.4f line=%.3f outlier=%.4f\n",
              layer + 1, m.mean, m.sigma, m.lineHotspot, m.outlierHotspot);
  return 0;
}

int compareImpl(const Args& args) {
  layout::Layout original({}, 0);
  std::string error;
  if (!loadLayout(args, original, &error)) {
    std::fprintf(stderr, "compare: %s\n", error.c_str());
    return 2;
  }
  original.clearFills();
  const std::string suite = args.getOr("suite", "s");
  const geom::Coord window = args.getIntChecked("window", 1200);
  const layout::DesignRules rules = rulesFrom(args);
  const contest::Evaluator evaluator(window, contest::scoreTableFor(suite),
                                     rules);

  std::vector<contest::ResultRow> rows;
  auto runOne = [&](const std::string& team, auto&& fillFn) {
    layout::Layout chip = original;
    Timer timer;
    fillFn(chip);
    contest::ResultRow row;
    row.design = suite;
    row.team = team;
    row.runtimeSeconds = timer.elapsedSeconds();
    row.memoryMiB = peakMemoryMiB();
    row.raw = evaluator.measure(chip);
    row.scores = evaluator.score(row.raw, row.runtimeSeconds, row.memoryMiB);
    rows.push_back(row);
  };

  runOne("tile-lp", [&](layout::Layout& chip) {
    baselines::TileLpFiller::Options o;
    o.windowSize = window;
    o.rules = rules;
    baselines::TileLpFiller(o).fill(chip);
  });
  runOne("monte-carlo", [&](layout::Layout& chip) {
    baselines::MonteCarloFiller::Options o;
    o.windowSize = window;
    o.rules = rules;
    baselines::MonteCarloFiller(o).fill(chip);
  });
  runOne("greedy", [&](layout::Layout& chip) {
    baselines::GreedyFiller::Options o;
    o.windowSize = window;
    o.rules = rules;
    baselines::GreedyFiller(o).fill(chip);
  });
  runOne("ours", [&](layout::Layout& chip) {
    fill::FillEngineOptions o;
    o.windowSize = window;
    o.rules = rules;
    o.numThreads = static_cast<int>(args.getIntChecked("threads", o.numThreads));
    fill::FillEngine(o).run(chip);
  });

  contest::printTable3(rows);
  if (const auto json = args.get("json"); json.has_value() && !json->empty()) {
    if (!contest::writeJson(rows, *json)) {
      std::fprintf(stderr, "compare: cannot write %s\n", json->c_str());
      return 1;
    }
  }
  return 0;
}

int batchImpl(const Args& args) {
  const std::string manifestPath = args.getOr("manifest", "");
  if (manifestPath.empty()) {
    std::fprintf(stderr, "batch: missing --manifest <file>\n");
    return 2;
  }
  const std::string outDir = args.getOr("out-dir", "");
  if (outDir.empty()) {
    std::fprintf(stderr, "batch: missing --out-dir <dir>\n");
    return 2;
  }

  service::ManifestParse manifest;
  std::string ioError;
  if (!service::parseManifestFile(manifestPath, &manifest, &ioError)) {
    std::fprintf(stderr, "batch: %s\n", ioError.c_str());
    return 2;
  }
  if (!manifest.ok()) {
    for (const auto& e : manifest.errors) {
      std::fprintf(stderr, "batch: %s:%d: %s\n", manifestPath.c_str(), e.line,
                   e.message.c_str());
    }
    return 2;
  }
  if (manifest.jobs.empty()) {
    std::fprintf(stderr, "batch: manifest %s lists no jobs\n",
                 manifestPath.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(outDir, ec);
  if (ec) {
    std::fprintf(stderr, "batch: cannot create --out-dir %s: %s\n",
                 outDir.c_str(), ec.message().c_str());
    return 2;
  }

  const bool profiling = profilingRequested(args);
  if (profiling) enableProfiling();
  const ObsRequest obsReq = obsRequestFrom(args);
  enableObservability(obsReq);
  const double metricsInterval = args.getDoubleChecked("metrics-interval-s", 0.0);

  service::ServiceOptions so;
  so.maxConcurrentJobs =
      static_cast<int>(args.getIntChecked("jobs", so.maxConcurrentJobs));
  so.threadsPerJob =
      static_cast<int>(args.getIntChecked("threads-per-job", so.threadsPerJob));
  so.cacheBytes = static_cast<std::size_t>(
                      std::max(0ll, args.getIntChecked("cache-mb", 64)))
                  << 20;
  so.defaultTimeoutSeconds = args.getDoubleChecked("timeout-s", 0.0);

  // Resolve output paths: manifest --out names are relative to --out-dir,
  // unnamed jobs get a deterministic "job<i>_<stem>" name so repeated
  // inputs in one manifest never collide.
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    service::JobSpec& job = manifest.jobs[i];
    std::string name = job.outputPath;
    if (name.empty()) {
      const std::string stem =
          std::filesystem::path(job.inputPath).stem().string();
      name = "job" + std::to_string(i) + "_" + stem +
             (job.format == service::OutputFormat::kOasis ? ".oas" : ".gds");
    }
    job.outputPath = (std::filesystem::path(outDir) / name).string();
  }

  // Periodic metrics dump (long batches): rewrite the --metrics-out /
  // --metrics-prom files every --metrics-interval-s seconds so an operator
  // (or a Prometheus file-based scrape) can watch a run in flight.
  std::mutex dumpMutex;
  std::condition_variable dumpCv;
  bool dumpStop = false;
  std::thread dumpThread;
  if (obsReq.metrics() && metricsInterval > 0) {
    dumpThread = std::thread([&] {
      std::unique_lock<std::mutex> lock(dumpMutex);
      while (!dumpCv.wait_for(
          lock, std::chrono::duration<double>(metricsInterval),
          [&] { return dumpStop; })) {
        writeMetricsSnapshot("batch", obsReq);
      }
    });
  }

  // The service lives in a scope so its destructor joins every worker
  // before the final metrics/trace artifacts are written — otherwise a
  // worker could still be between publishing its last result and bumping
  // its completion counters when the snapshot is taken.
  std::vector<service::JobResult> results;
  service::ServiceStats stats;
  int resolvedThreadsPerJob = 0;
  // SIGINT/SIGTERM drain: stop submitting, cancel queued + running jobs
  // through their CancelTokens, then report what did finish and exit
  // nonzero — never kill workers mid-write.
  const bool signalsInstalled = serve::installSignalHandlers(false);
  std::atomic<bool> interrupted{false};
  {
    service::FillService svc(so);
    resolvedThreadsPerJob = svc.threadsPerJob();
    std::atomic<bool> watcherStop{false};
    std::thread watcher;
    if (signalsInstalled) {
      watcher = std::thread([&] {
        while (!watcherStop.load(std::memory_order_acquire)) {
          if (serve::waitSignal(0.2) == serve::SignalKind::kDrain) {
            interrupted.store(true, std::memory_order_release);
            std::fprintf(stderr, "batch: interrupted, draining...\n");
            svc.cancelAll();
            return;
          }
        }
      });
    }
    for (service::JobSpec& job : manifest.jobs) {
      if (interrupted.load(std::memory_order_acquire)) break;
      svc.submit(std::move(job));
    }
    results = svc.waitAll();
    stats = svc.stats();
    watcherStop.store(true, std::memory_order_release);
    if (watcher.joinable()) watcher.join();
  }
  if (signalsInstalled) serve::uninstallSignalHandlers();

  if (dumpThread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dumpMutex);
      dumpStop = true;
    }
    dumpCv.notify_all();
    dumpThread.join();
  }

  bool allOk = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const service::JobResult& r = results[i];
    if (r.status == service::JobStatus::kSucceeded) {
      std::printf("job %zu: ok  %zu fills%s  %.2fs  %lld bytes\n", i,
                  r.fillCount,
                  r.spliced    ? "  (cache hit, spliced)"
                  : r.cacheHit ? "  (cache hit)"
                               : "",
                  r.runSeconds, r.outputBytes);
    } else {
      allOk = false;
      std::printf("job %zu: %s  %s\n", i, service::toString(r.status),
                  r.error.c_str());
    }
  }
  std::printf("batch: %llu/%llu jobs ok in %.2fs (%.2f jobs/s, %d workers x "
              "%d threads, cache hit rate %.0f%%)\n",
              static_cast<unsigned long long>(stats.succeeded),
              static_cast<unsigned long long>(stats.submitted),
              stats.wallSeconds, stats.jobsPerSecond, so.maxConcurrentJobs,
              resolvedThreadsPerJob, 100.0 * stats.cacheHitRate);
  if (args.hasFlag("json")) {
    std::printf("%s\n", service::toJson(stats).c_str());
  }
  if (obsReq.any()) {
    service::exportToMetrics(stats);  // batch summary as service.* gauges
    if (emitObservability("batch", obsReq) != 0) return 1;
  }
  if (profiling) {
    const int rc = emitProfile("batch", args, stats.profile);
    if (rc != 0) return rc;
  }
  if (interrupted.load(std::memory_order_acquire)) return 130;
  return allOk ? 0 : 1;
}

int checkImpl(const Args& args) {
  layout::Layout chip({}, 0);
  std::string error;
  if (!loadLayout(args, chip, &error)) {
    std::fprintf(stderr, "check: %s\n", error.c_str());
    return 2;
  }

  verify::InvariantChecker::Options vopts;
  if (!engineOptionsFrom(args, vopts.engine, &error)) {
    std::fprintf(stderr, "check: %s\n", error.c_str());
    return 2;
  }
  vopts.suite = args.getOr("suite", "s");
  vopts.checkDeterminism = !args.hasFlag("skip-determinism");
  vopts.determinismThreads = static_cast<int>(
      args.getIntChecked("determinism-threads", vopts.determinismThreads));
  if (const auto inject = args.get("inject"); inject.has_value()) {
    const auto fault = verify::faultClassFromString(*inject);
    if (!fault.has_value()) {
      std::fprintf(stderr,
                   "check: unknown --inject %s "
                   "(spacing|density|overlay|determinism)\n",
                   inject->c_str());
      return 2;
    }
    vopts.inject = *fault;
  }

  const verify::VerifyReport report =
      verify::InvariantChecker(vopts).check(chip);
  if (args.hasFlag("json")) {
    std::fputs(verify::toJson(report).c_str(), stdout);
  } else {
    for (const verify::CheckResult& c : report.checks) {
      std::printf("  [%s] %-20s %s\n", c.passed ? "PASS" : "FAIL",
                  c.name.c_str(), c.detail.c_str());
    }
    if (report.injected != verify::FaultClass::kNone) {
      std::printf("injected %s fault: %s\n",
                  verify::toString(report.injected).c_str(),
                  report.injectionDetected ? "DETECTED" : "MISSED");
    }
    std::printf("check: %s\n", report.ok() ? "OK" : "FAILED");
  }
  return report.ok() ? 0 : 1;
}

int fuzzImpl(const Args& args) {
  // Replay mode: re-run one minimized repro (e.g. a CI artifact).
  if (const auto replay = args.get("replay"); replay.has_value()) {
    const auto fuzzCase = verify::readReproFile(*replay);
    if (!fuzzCase.has_value()) {
      std::fprintf(stderr, "fuzz: cannot read repro %s\n", replay->c_str());
      return 2;
    }
    const verify::FuzzOutcome outcome = verify::LayoutFuzzer::check(
        *fuzzCase, !args.hasFlag("skip-determinism"));
    if (outcome.passed) {
      std::printf("fuzz: repro %s passes (seed %llu)\n", replay->c_str(),
                  static_cast<unsigned long long>(fuzzCase->seed));
      return 0;
    }
    std::printf("fuzz: repro %s FAILS check %s: %s\n", replay->c_str(),
                outcome.check.c_str(), outcome.detail.c_str());
    return 1;
  }

  verify::FuzzOptions fopts;
  fopts.seeds = static_cast<int>(args.getIntChecked("seeds", 100));
  fopts.firstSeed =
      static_cast<std::uint64_t>(args.getIntChecked("seed-start", 1));
  fopts.maxSeconds = args.getDoubleChecked("minutes", 0.0) * 60.0;
  fopts.corpusDir = args.getOr("corpus", "fuzz-repros");
  fopts.checkDeterminism = !args.hasFlag("skip-determinism");
  fopts.minimize = !args.hasFlag("no-minimize");

  const verify::FuzzStats stats = verify::LayoutFuzzer(fopts).run();
  for (const verify::FuzzFailure& f : stats.failures) {
    std::printf("fuzz: seed %llu FAILS check %s: %s\n",
                static_cast<unsigned long long>(f.seed), f.check.c_str(),
                f.detail.c_str());
    if (!f.reproPath.empty()) {
      std::printf("      minimized %zu -> %zu wires, repro: %s\n",
                  f.originalWireCount, f.minimizedWireCount,
                  f.reproPath.c_str());
    }
  }
  std::printf("fuzz: %d seeds in %.1fs, %zu failure%s\n", stats.executed,
              stats.seconds, stats.failures.size(),
              stats.failures.size() == 1 ? "" : "s");
  return stats.failures.empty() ? 0 : 1;
}

int serveImpl(const Args& args) {
  serve::ServeConfig cfg;
  if (const auto cfgPath = args.get("config");
      cfgPath.has_value() && !cfgPath->empty()) {
    std::vector<std::string> errors;
    const bool loaded = serve::ServeConfig::loadFile(*cfgPath, &cfg, &errors);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "serve: %s: %s\n", cfgPath->c_str(), e.c_str());
    }
    if (!loaded || !errors.empty()) return 2;
  }
  // Flags override the file.
  cfg.host = args.getOr("host", cfg.host);
  cfg.port = static_cast<int>(args.getIntChecked("port", cfg.port));
  cfg.jobs = static_cast<int>(args.getIntChecked("jobs", cfg.jobs));
  cfg.threadsPerJob = static_cast<int>(
      args.getIntChecked("threads-per-job", cfg.threadsPerJob));
  cfg.cacheBytes = static_cast<std::size_t>(args.getIntChecked(
                       "cache-mb",
                       static_cast<long long>(cfg.cacheBytes >> 20)))
                   << 20;
  cfg.cacheDir = args.getOr("cache-dir", cfg.cacheDir);
  cfg.persistentCacheBytes =
      static_cast<std::size_t>(args.getIntChecked(
          "persist-mb",
          static_cast<long long>(cfg.persistentCacheBytes >> 20)))
      << 20;
  cfg.maxConnections = static_cast<int>(
      args.getIntChecked("max-connections", cfg.maxConnections));
  cfg.maxInflightPerClient = static_cast<int>(
      args.getIntChecked("max-inflight", cfg.maxInflightPerClient));
  cfg.defaultTimeoutSeconds =
      args.getDoubleChecked("timeout-s", cfg.defaultTimeoutSeconds);

  serve::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  if (!serve::installSignalHandlers(/*withReload=*/true)) {
    std::fprintf(stderr, "serve: cannot install signal handlers\n");
    return 1;
  }
  std::printf("serve: listening on %s:%d\n", cfg.host.c_str(), server.port());
  if (server.persistentCache() != nullptr) {
    std::printf("serve: persistent cache at %s\n",
                server.persistentCache()->dir().c_str());
  }
  std::fflush(stdout);

  while (true) {
    const serve::SignalKind sig = serve::waitSignal(0.2);
    if (sig == serve::SignalKind::kDrain || server.shutdownRequested()) break;
    if (sig == serve::SignalKind::kReload) {
      const std::string summary = server.reload();
      std::printf("serve: %s\n", summary.c_str());
      std::fflush(stdout);
    }
  }
  std::printf("serve: draining...\n");
  std::fflush(stdout);
  server.drain();
  const serve::Server::Counters c = server.counters();
  std::printf("serve: drained; %llu connections, %llu requests, %llu jobs "
              "(%llu rejected, %llu cancelled by disconnect)\n",
              static_cast<unsigned long long>(c.connectionsAccepted),
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.jobsSubmitted),
              static_cast<unsigned long long>(c.jobsRejected),
              static_cast<unsigned long long>(c.jobsCancelledByDisconnect));
  serve::uninstallSignalHandlers();
  return 0;
}

int submitImpl(const Args& args) {
  const int port = static_cast<int>(args.getIntChecked("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "submit: missing --port <port>\n");
    return 2;
  }
  serve::Request req;
  const std::string type = args.getOr("type", "fill");
  const auto parsedType = serve::Request::typeFromName(type);
  if (!parsedType.has_value()) {
    std::fprintf(stderr, "submit: unknown --type %s\n", type.c_str());
    return 2;
  }
  req.type = *parsedType;
  req.client = args.getOr("client", "");
  req.spec = args.getOr("spec", "");
  req.timeoutSeconds = args.getDoubleChecked("timeout-s", 0.0);
  req.suite = args.getOr("suite", "s");
  req.determinism = args.hasFlag("determinism");
  req.jobId = args.getIntChecked("job-id", -1);
  if (const auto changed = args.get("changed"); changed.has_value()) {
    long long v[4];
    if (std::sscanf(changed->c_str(), "%lld,%lld,%lld,%lld", &v[0], &v[1],
                    &v[2], &v[3]) != 4) {
      std::fprintf(stderr, "submit: --changed expects xl,yl,xh,yh\n");
      return 2;
    }
    req.changed = geom::Rect{v[0], v[1], v[2], v[3]};
    req.hasChanged = true;
  }

  serve::Client client(args.getOr("host", "127.0.0.1"), port,
                       args.getDoubleChecked("connect-timeout-s", 30.0));
  if (!client.connected()) {
    std::fprintf(stderr, "submit: %s\n", client.error().c_str());
    return 1;
  }
  const auto resp = client.call(req);
  if (!resp.has_value()) {
    std::fprintf(stderr, "submit: %s\n", client.error().c_str());
    return 1;
  }
  std::printf("%s\n", resp->raw.c_str());
  return resp->ok ? 0 : 1;
}

}  // namespace

std::string usage() {
  return
      "openfill <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate --suite s|b|m|xl|tiny --out FILE.gds [--stream]\n"
      "      Generate a synthetic benchmark suite (wires only). --stream\n"
      "      (implied by xl, ~2M+ wires) writes rects as they are\n"
      "      generated instead of building the layout in memory —\n"
      "      identical bytes either way.\n"
      "  fill --in FILE.gds --out FILE.gds [--die xl,yl,xh,yh] [--window N]\n"
      "       [--lambda X] [--gamma X] [--eta X] [--iterations N]\n"
      "       [--backend ns|ssp|lp] [--format gds|oasis] [--compact]\n"
      "       [--json] [--stream] [--mem-budget-mb N]\n"
      "       [--threads N] [--profile] [--profile-json FILE]\n"
      "       [--trace FILE] [--metrics-out FILE] [--metrics-prom FILE]\n"
      "       [--suite s|b|m|tiny]\n"
      "       [--min-width N --min-spacing N --min-area N --max-fill N]\n"
      "      Insert dummy fills; --compact writes fill arrays as AREFs;\n"
      "      --stream runs the bounded-memory window-sharded pipeline\n"
      "      (byte-identical output; --mem-budget-mb, default 512, caps\n"
      "      the in-memory spools, which spill to disk past it; a band's\n"
      "      working set and per-thread scratch come on top, so peak RSS\n"
      "      can exceed a small budget; incompatible with --compact/\n"
      "      --format oasis);\n"
      "      --json prints a machine-readable summary (incl. peak RSS);\n"
      "      --threads 0 (default) uses every hardware core, results are\n"
      "      identical for any thread count. --profile prints the hot-path\n"
      "      stage table (thread-seconds) to stderr; --profile-json writes\n"
      "      the same snapshot as JSON (schema: docs/architecture.md).\n"
      "      --trace writes a Chrome trace-event JSON (open in Perfetto);\n"
      "      --metrics-out / --metrics-prom write the unified metrics\n"
      "      snapshot (stage timers, per-window quality telemetry, score\n"
      "      decomposition, peak RSS) as JSON / Prometheus text; --suite\n"
      "      picks the score table for that decomposition (default s).\n"
      "      Unknown options are an error (exit 2).\n"
      "  evaluate --in FILE.gds --suite s|b|m [--window N] [--runtime S]\n"
      "       [--memory MiB]\n"
      "      Score a filled layout with the contest metric.\n"
      "  drc --in FILE.gds [rule options]\n"
      "      Check fills against the design rules.\n"
      "  stats --in FILE.gds\n"
      "      Print shape counts and file statistics.\n"
      "  stats --metrics FILE [--require name,name,...]\n"
      "      Pretty-print a --metrics-out snapshot; --require exits 1 if\n"
      "      any named series is missing (CI artifact check). Names may\n"
      "      use shell globs: --require 'bench.*' asserts the prefix is\n"
      "      populated.\n"
      "  heatmap --in FILE.gds [--window N] [--layer N] [--csv FILE]\n"
      "      Render a window-density heatmap (ASCII to stdout, or CSV).\n"
      "  compare --in FILE.gds --suite s|b|m [--window N] [--threads N]\n"
      "       [--json FILE]\n"
      "      Run all fillers (3 baselines + engine) and print the score "
      "grid.\n"
      "  batch --manifest FILE --out-dir DIR [--jobs N] [--threads-per-job M]\n"
      "       [--cache-mb K] [--timeout-s S] [--json] [--profile]\n"
      "       [--profile-json FILE] [--trace FILE] [--metrics-out FILE]\n"
      "       [--metrics-prom FILE] [--metrics-interval-s S]\n"
      "      Run a manifest of fill jobs (one per line: input path + fill\n"
      "      options) with N concurrent jobs over a shared result cache;\n"
      "      outputs are byte-identical to sequential `openfill fill` runs\n"
      "      for any --jobs/--threads-per-job setting. --profile/-json\n"
      "      report hot-path stages aggregated over every job (and appear\n"
      "      under \"profile\" in --json output). --trace/--metrics-out\n"
      "      work as for fill, with spans tagged by job id;\n"
      "      --metrics-interval-s rewrites the metrics files periodically\n"
      "      while the batch runs.\n"
      "  check --in FILE.gds --suite s|b|m [--json] [--skip-determinism]\n"
      "       [--inject spacing|density|overlay|determinism]\n"
      "       [engine options as for fill]\n"
      "      Verify a fill solution against every invariant: fill-region\n"
      "      containment, DRC, planned density bounds, GDS/OASIS round-trip\n"
      "      stability, independent metric/score oracles, and thread/cache\n"
      "      determinism. --inject corrupts the solution (or comparison)\n"
      "      and exits 0 only if the targeted violation class is caught.\n"
      "  fuzz [--seeds N] [--seed-start S] [--minutes M] [--corpus DIR]\n"
      "       [--skip-determinism] [--no-minimize] [--replay FILE.repro]\n"
      "      Run the seeded random-layout fuzzer over the full\n"
      "      fill->evaluate pipeline; failures are shrunk to minimal\n"
      "      repros in DIR (default fuzz-repros). --replay re-runs one\n"
      "      repro file and reports its verdict.\n"
      "  serve --port P [--host H] [--config FILE] [--jobs N]\n"
      "       [--threads-per-job M] [--cache-mb K] [--cache-dir DIR]\n"
      "       [--persist-mb K] [--max-connections N] [--max-inflight N]\n"
      "       [--timeout-s S]\n"
      "      Run the fill daemon: accepts fill/eco/check jobs from\n"
      "      concurrent clients over a length-prefixed JSON protocol\n"
      "      (frame format: docs/architecture.md). --port 0 binds an\n"
      "      ephemeral port (printed on stdout). --cache-dir persists the\n"
      "      result cache across restarts (integrity-checked; corrupt\n"
      "      entries quarantined). SIGTERM/SIGINT drain gracefully (finish\n"
      "      in-flight jobs, exit 0); SIGHUP or a reload request re-reads\n"
      "      --config.\n"
      "  submit --port P [--host H] [--type fill|eco|check|ping|stats|\n"
      "       metrics|metrics-json|trace|reload|shutdown]\n"
      "       [--spec \"in.gds --out out.gds [fill options]\"]\n"
      "       [--changed xl,yl,xh,yh] [--client NAME] [--timeout-s S]\n"
      "       [--suite s|b|m] [--determinism] [--job-id N]\n"
      "      Send one request to a running daemon and print the JSON\n"
      "      response; exits 0 only when the server reports ok. --spec\n"
      "      uses the batch manifest line syntax, so a served job is\n"
      "      byte-identical to the matching `openfill fill` run.\n"
      "  bench-report --dir DIR [--out FILE] [--html] [--threshold P]\n"
      "      Render a trend table over a directory of accumulated\n"
      "      BENCH_*.json artifacts (oldest run per benchmark/suite is the\n"
      "      baseline), flagging series whose CI excludes the baseline\n"
      "      mean. Markdown to stdout by default; --html for HTML.\n"
      "  bench-compare BASELINE.json CURRENT.json [--threshold P]\n"
      "       [--fail-on-regression]\n"
      "      Compare two benchmark artifacts; a series regresses when its\n"
      "      mean moved > P (default 0.05) in the worse direction AND the\n"
      "      current CI excludes the baseline mean. Wall-clock series are\n"
      "      skipped across differing machines; ratio series always gate.\n"
      "      --fail-on-regression exits 1 on any regression or missing\n"
      "      series (otherwise the verdict is informational, exit 0).\n";
}

int run(const Args& args) {
  if (args.positional().empty()) {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  const std::string& command = args.positional().front();
  if (command == "generate") return runGenerate(args);
  if (command == "fill") return runFill(args);
  if (command == "evaluate") return runEvaluate(args);
  if (command == "drc") return runDrc(args);
  if (command == "stats") return runStats(args);
  if (command == "heatmap") return runHeatmap(args);
  if (command == "compare") return runCompare(args);
  if (command == "batch") return runBatch(args);
  if (command == "check") return runCheck(args);
  if (command == "fuzz") return runFuzz(args);
  if (command == "serve") return runServe(args);
  if (command == "submit") return runSubmit(args);
  if (command == "bench-report") return runBenchReport(args);
  if (command == "bench-compare") return runBenchCompare(args);
  std::fprintf(stderr, "unknown command: %s\n%s", command.c_str(),
               usage().c_str());
  return 2;
}

int runGenerate(const Args& args) {
  return guarded("generate", [&] { return generateImpl(args); });
}
int runFill(const Args& args) {
  return guarded("fill", [&] { return fillImpl(args); });
}
int runEvaluate(const Args& args) {
  return guarded("evaluate", [&] { return evaluateImpl(args); });
}
int runDrc(const Args& args) {
  return guarded("drc", [&] { return drcImpl(args); });
}
int runStats(const Args& args) {
  return guarded("stats", [&] { return statsImpl(args); });
}
int runHeatmap(const Args& args) {
  return guarded("heatmap", [&] { return heatmapImpl(args); });
}
int runCompare(const Args& args) {
  return guarded("compare", [&] { return compareImpl(args); });
}
int runBatch(const Args& args) {
  return guarded("batch", [&] { return batchImpl(args); });
}
int runCheck(const Args& args) {
  return guarded("check", [&] { return checkImpl(args); });
}
int runFuzz(const Args& args) {
  return guarded("fuzz", [&] { return fuzzImpl(args); });
}
int runServe(const Args& args) {
  return guarded("serve", [&] { return serveImpl(args); });
}
int runSubmit(const Args& args) {
  return guarded("submit", [&] { return submitImpl(args); });
}

}  // namespace ofl::cli

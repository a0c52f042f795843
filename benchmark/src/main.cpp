// openfill benchmark program.
//
//   openfill_bench --workload fill_inmem|stream_xl|serve_mixed --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// Generates the workload's inputs from the seed under DIR, measures for S
// seconds, checks the outputs, and prints one JSON result line on stdout:
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
// metrics of the traced run. Everything else goes to stderr. Exit 0 when
// a result line was printed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.hpp"
#include "workloads.hpp"

namespace ofb {

void emitEndToEnd(const EndToEnd& e, Result& r) {
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double wall = e.wallSeconds > 0 ? e.wallSeconds : 1.0;
  const double fillP50 = median(e.fillSeconds);
  double wiresPerSecond = e.wires / wall;
  double requestsPerSecond = e.operations / wall;
  if (!e.fillWires.empty()) {
    std::vector<double> rates;
    for (std::size_t k = 0; k < e.fillWires.size(); ++k) {
      rates.push_back(e.fillWires[k] / e.fillSeconds[k]);
    }
    wiresPerSecond = median(rates);
    requestsPerSecond = fillP50 > 0 ? 1.0 / fillP50 : 0.0;
  }
  r.add("setup_s", median(e.setupSeconds), "s");
  r.add("fill_s_p50", fillP50, "s");
  r.add("wires_per_s", wiresPerSecond, "1/s");
  r.add("requests_per_s", requestsPerSecond, "1/s");
  r.add("latency_ms_p50", quantile(e.latencyMs, 0.50), "ms");
  r.add("latency_ms_p99", quantile(e.latencyMs, 0.99), "ms");
  r.add("cpu_s", e.cpuSeconds, "s");
  r.add("peak_rss_mib", e.peakRssMiB, "MiB");
  r.add("quality_score", mean(e.quality), "score");
  r.add("output_mb", mean(e.outputMB), "MB");
}

namespace {

// The input each workload's traced run profiles the in-memory engine on:
// a suite-m layout (xl cannot be held in memory) or, for serve_mixed, a
// suite-b layout like its largest requests.
std::string probeLayout(const RunArgs& a, const std::string& suite) {
  const std::string path = joinPath(a.workDir, "probe_" + suite + ".gds");
  writeSuiteLayout(suite, deriveSeed(a.seed, 9, 0), path);
  return path;
}

// A short serve_mixed session for workloads that do not serve, so every
// traced run reports the serve layers.
constexpr std::size_t kServeProbeRequests = 200;

Result traced(const RunArgs& a) {
  Result r;
  EndToEnd session;
  const std::string serveDir = joinPath(a.workDir, "serve");
  if (a.workload == "serve_mixed") {
    serveSession(a.seed, a.seconds, 1000, serveDir, true, r, session);
    const std::string probe = probeLayout(a, "b");
    engineProbe(probe, a.workDir, r);
    streamProbe(probe, a.workDir, r);
    return r;
  }
  const std::string probe = probeLayout(a, "m");
  engineProbe(probe, a.workDir, r);
  if (a.workload == "stream_xl") {
    // The streamed probe runs on the workload's own xl input.
    const std::string xl = joinPath(a.workDir, "xl.gds");
    if (writeXlInput(a.seed, xl) == 0) r.fail("cannot write " + xl);
    streamProbe(xl, a.workDir, r);
  } else {
    streamProbe(probe, a.workDir, r);
  }
  serveSession(a.seed, 0.0, kServeProbeRequests, serveDir, true, r, session);
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: openfill_bench --workload fill_inmem|stream_xl|"
               "serve_mixed --seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

}  // namespace ofb

int main(int argc, char** argv) {
  using namespace ofb;
  ofl::setLogLevel(ofl::LogLevel::kWarn);
  RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.workDir = value;
    } else {
      return usage();
    }
  }
  if (a.workDir.empty() || a.seconds <= 0 ||
      (a.workload != "fill_inmem" && a.workload != "stream_xl" &&
       a.workload != "serve_mixed")) {
    return usage();
  }
  freshDir(a.workDir);
  Result r;
  if (a.trace) {
    r = traced(a);
  } else if (a.workload == "fill_inmem") {
    r = runFillInmem(a);
  } else if (a.workload == "stream_xl") {
    r = runStreamXl(a);
  } else {
    r = runServeMixed(a);
  }
  std::filesystem::remove_all(a.workDir);
  std::printf("%s\n", r.toJson().c_str());
  return 0;
}

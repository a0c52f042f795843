// The benchmark's workloads (see ../README.md for why each exists) and
// the probes the traced run is assembled from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ofb {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;  // scratch space inside the checkout
};

/// Streamed-fill memory budget (MiB), also the stream_xl peak-RSS limit.
constexpr std::size_t kStreamBudgetMiB = 512;

/// The end-to-end figures of one untraced run, before reduction.
struct EndToEnd {
  std::vector<double> setupSeconds;  // one per set-up repetition
  std::vector<double> fillSeconds;   // per fill operation
  std::vector<double> latencyMs;     // per operation; failures at timeout
  double wallSeconds = 0.0;          // timed phase
  double cpuSeconds = 0.0;
  double peakRssMiB = 0.0;
  double wires = 0.0;       // input wires of completed operations
  double operations = 0.0;  // completed operations
  /// Sequential workloads only: input wires of each fill, parallel to
  /// fillSeconds. Rates then come from the median fill, which a stall of
  /// one operation cannot move.
  std::vector<double> fillWires;
  std::vector<double> quality;   // Testcase Quality per checked output
  std::vector<double> outputMB;  // output GDSII size per operation
};
/// Adds every end-to-end metric of BENCHMARK.json to `r`.
void emitEndToEnd(const EndToEnd& e, Result& r);

/// Streams stream_xl's input (suite xl wires from the seed) to `path`
/// as GDSII; returns the wire count, 0 on a write failure.
std::size_t writeXlInput(std::uint64_t seed, const std::string& path);

Result runFillInmem(const RunArgs& a);
Result runStreamXl(const RunArgs& a);
Result runServeMixed(const RunArgs& a);

// ---- traced-run probes (each adds its own per-layer metrics) ----------

/// The rebuilt Fig. 3 flow on one layout at 1 thread and at nproc
/// threads, next to FillEngine::run; asserts byte identity. Adds gds.*
/// read/write, layout.*, density.*, fill.*, mcf.* and trace.* metrics.
void engineProbe(const std::string& gdsPath, const std::string& dir,
                 Result& r);
/// ShardedEngine scan + runFile on `gdsPath` plus standalone StreamReader
/// and StreamWriter passes. Adds stream.* and gds.stream_* metrics.
void streamProbe(const std::string& gdsPath, const std::string& dir,
                 Result& r);
/// A serve_mixed session (set-up, closed-loop clients, checks) lasting
/// `seconds` and at least `minRequests` requests. Fills `e2e`; with
/// `perLayer` also adds serve.*, service.* and fill.eco_windows_skipped.
void serveSession(std::uint64_t seed, double seconds, std::size_t minRequests,
                  const std::string& dir, bool perLayer, Result& r,
                  EndToEnd& e2e);

}  // namespace ofb

// The serve_mixed traffic: closed-loop clients against an in-process
// `openfill serve` core, each holding one connection and waiting for every
// reply (as `openfill submit` does).
//
// Each client's request sequence comes from the seed in blocks of
// kBlock requests: one fresh fill of a layout nobody has sent before (a
// cache miss), one ECO repair of a prepared filled layout (runIncremental,
// also a miss), and hits that repeat one of the client's own fill specs
// already answered. So hit/miss/ECO counts are fixed by the sequence and
// duplicate misses can never race.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "geometry/rect.hpp"
#include "serve/server.hpp"

namespace ofb {

enum class RequestKind { kMiss, kHit, kEco };
const char* kindName(RequestKind k);

/// An ECO input: a filled layout (written as GDS) whose wires were edited
/// inside `edit` after filling.
struct EcoBase {
  std::string path;
  ofl::geom::Rect edit;
  std::size_t wires = 0;
};

/// Inputs the clients draw from, prepared in set-up.
struct ServeInputs {
  /// [client][k]: the GDS file of the client's k-th fresh fill.
  std::vector<std::vector<std::string>> missInputs;
  std::vector<std::vector<std::size_t>> missWires;  // wire counts of those
  std::vector<std::vector<EcoBase>> ecoBases;  // [client][e]
};

struct ServeSample {
  RequestKind kind = RequestKind::kMiss;
  bool ok = false;
  bool cacheHit = false;
  double rttMs = 0.0;
  double queueMs = 0.0;
  double runMs = 0.0;
  long long outputBytes = 0;
  std::size_t ecoWindowsSkipped = 0;
  // What was asked, for the post-run byte checks.
  std::string input;
  std::string suite;  // generator suite of the input (score table)
  std::size_t wires = 0;
  std::string output;
  ofl::geom::Rect changed;
  bool kept = false;  // output path is not reused by later requests
};

struct SessionOutcome {
  std::vector<ServeSample> samples;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  double peakRssMiB = 0.0;
  bool clientThrew = false;  // a client thread died; its samples are lost
};

struct SessionPlan {
  int clients = 4;
  double seconds = 10.0;
  /// The run also keeps going until this many requests completed, so
  /// p99 has at least ten samples beyond it.
  std::size_t minRequests = 1000;
  std::uint64_t seed = 1;
};

/// Daemon settings for serve_mixed: `jobs` engine jobs of one thread each
/// (jobs x threads <= cores), caches large enough that nothing is evicted
/// during a run, a fresh persistent cache directory.
ofl::serve::ServeConfig serveConfig(const std::string& cacheDir, int jobs);

/// Prepares the client inputs under `dir`: fresh-fill layouts (suite s,
/// every kBEvery-th one suite b) and ECO bases, with generator seeds
/// derived from `seed`. Only clients with index % slices == slice are
/// prepared, so set-up can be timed in slices.
void prepareServeInputs(const std::string& dir, std::uint64_t seed,
                        int clients, int missesPerClient, int slice,
                        int slices, ServeInputs* inputs);
/// Fresh fills one client can issue in a session of `plan`, at most;
/// sizes the pool set-up prepares.
int missesPerClient(const SessionPlan& plan);
/// Generator suite of a client's k-th fresh fill.
std::string missSuite(int k);

/// Runs the closed-loop clients; outputs go under `outDir`.
SessionOutcome runSession(int port, const ServeInputs& inputs,
                          const SessionPlan& plan, const std::string& outDir);

/// Post-run checks: every sample's class matches its cache outcome, and
/// the kept outputs byte-match a direct in-process fill (or ECO repair).
/// Marks failing samples !ok.
void checkSession(SessionOutcome& outcome);

}  // namespace ofb

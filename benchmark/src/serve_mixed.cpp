// serve_mixed: an in-process `openfill serve` core with a fresh cache
// directory per run, driven by closed-loop clients (serve_session.hpp).
#include <filesystem>
#include <memory>

#include "common/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve_session.hpp"
#include "workloads.hpp"

namespace ofb {

namespace {

constexpr int kClients = 4;

struct CacheCounts {
  double hits = 0.0;
  double probes = 0.0;
};

// The daemon's own cache counters, asked for over the wire.
bool statsRequest(int port, CacheCounts* out) {
  ofl::serve::Client conn("127.0.0.1", port, 30.0);
  ofl::serve::Request req;
  req.type = ofl::serve::Request::Type::kStats;
  const auto resp = conn.call(req);
  if (!resp.has_value() || !resp->ok) return false;
  const ofl::json::Value* hits = resp->body.findPath("stats.service.cache.hits");
  const ofl::json::Value* misses =
      resp->body.findPath("stats.service.cache.misses");
  if (hits == nullptr || misses == nullptr) return false;
  *out = {hits->number, hits->number + misses->number};
  return true;
}

}  // namespace

void serveSession(std::uint64_t seed, double seconds, std::size_t minRequests,
                  const std::string& dir, bool perLayer, Result& r,
                  EndToEnd& e) {
  const std::string inputDir = joinPath(dir, "inputs");
  const std::string outDir = joinPath(dir, "outputs");
  std::filesystem::create_directories(inputDir);
  std::filesystem::create_directories(outDir);
  const SessionPlan plan{kClients, seconds, minRequests, seed};

  // Set-up, one slice per client: that client's inputs (fresh-fill
  // layouts, filled and edited ECO bases) plus a daemon start over a fresh
  // cache directory. The daemon of the last slice serves the run.
  ServeInputs inputs;
  std::unique_ptr<ofl::serve::Server> server;
  for (int slice = 0; slice < kClients; ++slice) {
    if (server != nullptr) server->drain();
    server.reset();
    Stopwatch setup;
    prepareServeInputs(inputDir, seed, kClients, missesPerClient(plan), slice,
                       kClients, &inputs);
    server = std::make_unique<ofl::serve::Server>(serveConfig(
        joinPath(dir, "cache" + std::to_string(slice)), nproc()));
    std::string error;
    if (!server->start(&error)) {
      r.fail("daemon start: " + error);
      r.attempted = 1;
      r.failed = 1;
      return;
    }
    e.setupSeconds.push_back(setup.seconds());
  }

  flushDirtyPages();
  SessionOutcome outcome = runSession(server->port(), inputs, plan, outDir);
  CacheCounts cache;
  const bool haveStats = perLayer && statsRequest(server->port(), &cache);
  server->drain();
  server.reset();

  // Checks, untimed: cache outcome per request class, served bytes against
  // direct fills on the kept sample, Testcase Quality of that sample.
  checkSession(outcome);
  std::vector<const ServeSample*> kept;
  for (const ServeSample& s : outcome.samples) {
    if (s.ok && s.kept) kept.push_back(&s);
  }
  std::vector<QualityCheck> quality(kept.size());
  ofl::parallelFor(nproc(), kept.size(), [&](std::size_t k) {
    evaluateFile(kept[k]->output, kept[k]->suite, &quality[k]);
  });
  for (const QualityCheck& q : quality) e.quality.push_back(q.quality);

  e.wallSeconds = outcome.wallSeconds;
  e.cpuSeconds = outcome.cpuSeconds;
  e.peakRssMiB = outcome.peakRssMiB;
  e.operations = static_cast<double>(outcome.samples.size());
  r.attempted += static_cast<long long>(outcome.samples.size());
  for (const ServeSample& s : outcome.samples) {
    e.latencyMs.push_back(s.rttMs);
    if (s.kind == RequestKind::kMiss) e.fillSeconds.push_back(s.rttMs / 1e3);
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    e.wires += static_cast<double>(s.wires);
    e.outputMB.push_back(static_cast<double>(s.outputBytes) / 1e6);
  }
  if (outcome.clientThrew) r.fail("a client thread failed");
  if (r.failed > 0) r.correct = false;
  if (!perLayer) return;

  // Per request class: time queued in the scheduler, time the service
  // spent on the job, and what remains of the round trip (framing,
  // socket, handler wake-ups).
  std::size_t ecoSkipped = 0;
  for (const RequestKind kind :
       {RequestKind::kHit, RequestKind::kMiss, RequestKind::kEco}) {
    std::vector<double> queue, run, overhead;
    for (const ServeSample& s : outcome.samples) {
      if (!s.ok || s.kind != kind) continue;
      queue.push_back(s.queueMs);
      run.push_back(s.runMs);
      overhead.push_back(s.rttMs - s.queueMs - s.runMs);
      ecoSkipped += s.ecoWindowsSkipped;
    }
    const std::string k = kindName(kind);
    r.add("serve.queue_ms_p50." + k, median(queue), "ms");
    r.add("service.run_ms_p50." + k, median(run), "ms");
    r.add("serve.overhead_ms_p50." + k, median(overhead), "ms");
    r.add("serve.requests." + k, static_cast<double>(queue.size()), "count");
  }
  if (!haveStats) r.fail("stats request failed");
  r.add("service.cache_hits", cache.hits, "count");
  r.add("service.cache_probes", cache.probes, "count");
  r.add("service.cache_hit_ratio",
        cache.probes > 0 ? cache.hits / cache.probes : 0.0, "ratio");
  r.add("fill.eco_windows_skipped", static_cast<double>(ecoSkipped), "count");
}

Result runServeMixed(const RunArgs& a) {
  Result r;
  EndToEnd e;
  serveSession(a.seed, a.seconds, 1000, a.workDir, false, r, e);
  emitEndToEnd(e, r);
  return r;
}

}  // namespace ofb

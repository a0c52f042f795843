#include "serve_session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "common/thread_pool.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "layout/window_grid.hpp"
#include "serve/client.hpp"
#include "service/layout_io.hpp"

namespace ofb {

namespace {

using ofl::geom::Rect;

// Per client block: position 0 is a fresh fill, one seeded position is an
// ECO repair, the rest are hits.
constexpr int kBlock = 16;
// Every kBEvery-th fresh fill is a suite-b layout; the rest are suite s.
constexpr int kBEvery = 4;
// ECO bases per client; the k-th ECO uses base k % kEcoBases.
constexpr int kEcoBases = 2;
// Highest request rate one client has been seen to reach (hits dominate);
// bounds the fresh-fill pool set-up prepares.
constexpr double kMaxRequestsPerClientPerSecond = 30.0;
// Latency charged to a failed or rejected request: the client timeout, so
// it lies beyond every percentile.
constexpr double kClientTimeoutSeconds = 120.0;

// A filled suite-s layout with the wires inside one window-centred square
// removed afterwards: an ECO whose change lies inside that square.
EcoBase makeEcoBase(std::uint64_t genSeed, const std::string& path) {
  using namespace ofl;
  contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("s");
  spec.seed = genSeed;
  layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  fill::FillEngine(engineOptions(1)).run(chip);

  const fill::FillEngineOptions o = engineOptions(1);
  const layout::WindowGrid grid(chip.die(), o.windowSize);
  std::mt19937_64 rng(genSeed);
  const int i = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                 std::max(1, grid.cols() - 2)));
  const int j = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                 std::max(1, grid.rows() - 2)));
  const Rect w = grid.windowRect(i, j);
  const geom::Coord cx = (w.xl + w.xh) / 2;
  const geom::Coord cy = (w.yl + w.yh) / 2;
  const Rect edit{cx - 300, cy - 300, cx + 300, cy + 300};
  for (int l = 0; l < chip.numLayers(); ++l) {
    auto& wires = chip.layer(l).wires;
    wires.erase(std::remove_if(wires.begin(), wires.end(),
                               [&](const Rect& r) {
                                 return r.xl >= edit.xl && r.yl >= edit.yl &&
                                        r.xh <= edit.xh && r.yh <= edit.yh;
                               }),
                wires.end());
  }
  gds::Writer::writeFile(chip.toGds(), path);
  return {path, edit, chip.wireCount()};
}

std::string directFill(const ServeSample& s) {
  ofl::layout::Layout chip;
  std::string error;
  if (!ofl::service::loadFlatLayout(s.input, std::nullopt, &chip, &error)) {
    return "";
  }
  const ofl::fill::FillEngine engine(engineOptions(1));
  if (s.kind == RequestKind::kEco) {
    engine.runIncremental(chip, s.changed);
  } else {
    engine.run(chip);
  }
  return gdsBytes(chip);
}

double number(const ofl::json::Value& body, const char* key) {
  const ofl::json::Value* v = body.find(key);
  return v != nullptr && v->isNumber() ? v->number : 0.0;
}

}  // namespace

std::string missSuite(int k) { return k % kBEvery == kBEvery - 1 ? "b" : "s"; }

const char* kindName(RequestKind k) {
  switch (k) {
    case RequestKind::kMiss: return "miss";
    case RequestKind::kHit: return "hit";
    case RequestKind::kEco: return "eco";
  }
  return "?";
}

ofl::serve::ServeConfig serveConfig(const std::string& cacheDir, int jobs) {
  ofl::serve::ServeConfig cfg;
  cfg.port = 0;
  cfg.jobs = jobs;
  cfg.threadsPerJob = 1;
  cfg.cacheDir = cacheDir;
  cfg.cacheBytes = std::size_t{1} << 30;
  cfg.persistentCacheBytes = std::size_t{2} << 30;
  return cfg;
}

int missesPerClient(const SessionPlan& plan) {
  const double requests =
      std::max(plan.seconds * kMaxRequestsPerClientPerSecond,
               static_cast<double>(plan.minRequests) / plan.clients);
  return static_cast<int>(std::ceil(requests / kBlock)) + 1;
}

void prepareServeInputs(const std::string& dir, std::uint64_t seed,
                        int clients, int misses, int slice, int slices,
                        ServeInputs* inputs) {
  inputs->missInputs.resize(static_cast<std::size_t>(clients));
  inputs->missWires.resize(static_cast<std::size_t>(clients));
  inputs->ecoBases.resize(static_cast<std::size_t>(clients));
  std::vector<int> mine;
  for (int c = 0; c < clients; ++c) {
    if (c % slices != slice) continue;
    mine.push_back(c);
    inputs->missInputs[static_cast<std::size_t>(c)].resize(
        static_cast<std::size_t>(misses));
    inputs->missWires[static_cast<std::size_t>(c)].resize(
        static_cast<std::size_t>(misses));
    inputs->ecoBases[static_cast<std::size_t>(c)].resize(kEcoBases);
  }
  const std::size_t perClient = static_cast<std::size_t>(misses) + kEcoBases;
  ofl::parallelFor(nproc(), mine.size() * perClient, [&](std::size_t item) {
    const int c = mine[item / perClient];
    const auto k = static_cast<int>(item % perClient);
    const auto cu = static_cast<std::uint64_t>(c);
    if (k < misses) {
      const std::string path = joinPath(
          dir, "miss_c" + std::to_string(c) + "_" + std::to_string(k) + ".gds");
      inputs->missWires[cu][static_cast<std::size_t>(k)] = writeSuiteLayout(
          missSuite(k), deriveSeed(seed, 1, cu * 100000 + k), path);
      inputs->missInputs[cu][static_cast<std::size_t>(k)] = path;
    } else {
      const int e = k - misses;
      const std::string path = joinPath(
          dir, "eco_c" + std::to_string(c) + "_" + std::to_string(e) + ".gds");
      inputs->ecoBases[cu][static_cast<std::size_t>(e)] =
          makeEcoBase(deriveSeed(seed, 2, cu * 100 + e), path);
    }
  });
}

SessionOutcome runSession(int port, const ServeInputs& inputs,
                          const SessionPlan& plan, const std::string& outDir) {
  SessionOutcome outcome;
  std::atomic<std::size_t> completed{0};
  std::vector<std::vector<ServeSample>> perClient(
      static_cast<std::size_t>(plan.clients));
  const double cpu0 = cpuSeconds();
  resetPeakRss();
  Stopwatch wall;

  auto client = [&](int c) {
    const auto cu = static_cast<std::size_t>(c);
    std::vector<ServeSample>& samples = perClient[cu];
    std::mt19937_64 rng(deriveSeed(plan.seed, 3, cu));
    ofl::serve::Client conn("127.0.0.1", port, kClientTimeoutSeconds);
    const std::string name = "bench" + std::to_string(c);
    std::vector<ServeSample> filled;  // answered fresh fills
    int misses = 0, ecos = 0, ecoPos = 1;
    bool keptMiss = false, keptHit = false, keptEco = false;
    for (int i = 0;; ++i) {
      if (wall.seconds() >= plan.seconds &&
          completed.load(std::memory_order_relaxed) >= plan.minRequests) {
        break;
      }
      const int pos = i % kBlock;
      if (pos == 0) ecoPos = 1 + static_cast<int>(rng() % (kBlock - 1));
      ServeSample s;
      s.kind = pos == 0 ? RequestKind::kMiss
               : pos == ecoPos ? RequestKind::kEco
                               : RequestKind::kHit;
      bool& kept = s.kind == RequestKind::kMiss  ? keptMiss
                   : s.kind == RequestKind::kHit ? keptHit
                                                 : keptEco;
      s.kept = !kept;
      kept = true;
      s.output = joinPath(outDir, "out_c" + std::to_string(c) + "_" +
                                      (s.kept ? "keep_" + std::to_string(i)
                                              : std::to_string(i % 2)) +
                                      ".gds");
      ofl::serve::Request req;
      req.client = name;
      if (s.kind == RequestKind::kMiss) {
        const auto& pool = inputs.missInputs[cu];
        s.suite = missSuite(misses);
        if (static_cast<std::size_t>(misses) < pool.size()) {
          s.input = pool[static_cast<std::size_t>(misses)];
          s.wires = inputs.missWires[cu][static_cast<std::size_t>(misses)];
        } else {
          // Pool exhausted (a much faster machine): make one more input
          // before the request is timed.
          s.input = joinPath(outDir, "late_c" + std::to_string(c) + "_" +
                                         std::to_string(misses) + ".gds");
          s.wires = writeSuiteLayout(
              s.suite, deriveSeed(plan.seed, 4, cu * 100000 + misses),
              s.input);
        }
        ++misses;
        req.type = ofl::serve::Request::Type::kFill;
      } else if (s.kind == RequestKind::kHit) {
        const ServeSample& repeat = filled[rng() % filled.size()];
        s.input = repeat.input;
        s.suite = repeat.suite;
        s.wires = repeat.wires;
        req.type = ofl::serve::Request::Type::kFill;
      } else {
        const auto& bases = inputs.ecoBases[cu];
        const EcoBase& base = bases[static_cast<std::size_t>(ecos) % bases.size()];
        // Distinct changed rects (a key per ECO) that all cover the edit
        // and touch the same windows.
        const auto margin =
            static_cast<ofl::geom::Coord>(ecos / static_cast<int>(bases.size()));
        s.input = base.path;
        s.suite = "s";
        s.wires = base.wires;
        s.changed = base.edit.expanded(margin);
        ++ecos;
        req.type = ofl::serve::Request::Type::kEco;
        req.changed = s.changed;
        req.hasChanged = true;
      }
      req.spec = s.input + " --out " + s.output;

      Stopwatch rtt;
      const auto resp = conn.call(req);
      s.rttMs = rtt.seconds() * 1e3;
      if (!resp.has_value()) {
        note("client %d: transport error: %s", c, conn.error().c_str());
        conn = ofl::serve::Client("127.0.0.1", port, kClientTimeoutSeconds);
      } else if (!resp->ok) {
        note("client %d: %s%s", c, resp->rejected ? "rejected: " : "",
             resp->error.c_str());
      } else {
        s.ok = true;
        const ofl::json::Value* hit = resp->body.find("cacheHit");
        s.cacheHit = hit != nullptr && hit->boolean;
        s.queueMs = number(resp->body, "queueSeconds") * 1e3;
        s.runMs = number(resp->body, "runSeconds") * 1e3;
        s.outputBytes =
            static_cast<long long>(number(resp->body, "outputBytes"));
        s.ecoWindowsSkipped = static_cast<std::size_t>(
            number(resp->body, "ecoWindowsSkipped"));
      }
      if (!s.ok) s.rttMs = kClientTimeoutSeconds * 1e3;
      if (s.kind == RequestKind::kMiss) filled.push_back(s);
      samples.push_back(std::move(s));
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // A client that throws fails the run instead of ending the process.
  std::atomic<bool> clientThrew{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client(c);
      } catch (const std::exception& ex) {
        note("client %d: %s", c, ex.what());
        clientThrew = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  outcome.wallSeconds = wall.seconds();
  outcome.cpuSeconds = cpuSeconds() - cpu0;
  outcome.peakRssMiB = peakRssMiB();
  outcome.clientThrew = clientThrew;
  for (auto& samples : perClient) {
    for (ServeSample& s : samples) outcome.samples.push_back(std::move(s));
  }
  return outcome;
}

void checkSession(SessionOutcome& outcome) {
  std::vector<ServeSample*> kept;
  for (ServeSample& s : outcome.samples) {
    if (!s.ok) continue;
    if (s.cacheHit != (s.kind == RequestKind::kHit)) {
      note("CHECK FAILED: %s request for %s came back cacheHit=%d",
           kindName(s.kind), s.input.c_str(), s.cacheHit ? 1 : 0);
      s.ok = false;
      continue;
    }
    if (s.kept) kept.push_back(&s);
  }
  std::vector<char> same(kept.size(), 0);
  ofl::parallelFor(nproc(), kept.size(), [&](std::size_t k) {
    const std::string direct = directFill(*kept[k]);
    same[k] = !direct.empty() && direct == readFile(kept[k]->output);
  });
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (same[k]) continue;
    note("CHECK FAILED: served %s output %s differs from a direct fill",
         kindName(kept[k]->kind), kept[k]->output.c_str());
    kept[k]->ok = false;
  }
}

}  // namespace ofb

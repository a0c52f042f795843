#include "fill/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "density/fft_density.hpp"
#include "density/metrics.hpp"
#include "gds/layout_scan.hpp"
#include "gds/stream_writer.hpp"
#include "layout/fill_region.hpp"
#include "layout/shard_store.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

namespace ofl::fill {
namespace {

// Window rows per band of the streamed passes: wider bands mean fewer,
// larger parallelFors but more band geometry held at once.
constexpr int kBandRows = 8;

inline void checkCancel(const CancelToken* token) {
  if (token != nullptr) token->throwIfExpired();
}

bool setError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string directoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

bool ShardedEngine::scanExtents(const std::string& path, geom::Rect* bbox,
                                int* maxLayer, std::string* error) {
  gds::ExtentScan scan;
  if (!gds::scanLayoutFile(path, scan, error)) return false;
  if (bbox != nullptr) *bbox = scan.bbox;
  if (maxLayer != nullptr) *maxLayer = scan.maxLayer;
  return true;
}

bool ShardedEngine::runFile(const std::string& inputPath,
                            const std::string& outputPath,
                            const std::optional<geom::Rect>& die,
                            ShardedReport* report, std::string* error) const {
  ShardedReport localReport;
  ShardedReport& rep = report != nullptr ? *report : localReport;
  rep = ShardedReport{};
  Timer total;
  const FillEngineOptions& eng = options_.engine;
  const double jid = static_cast<double>(eng.jobId);
  obs::ScopedSpan runSpan("engine.sharded_run", "engine", {{"job", jid}});

  const std::size_t budgetBytes = options_.memBudgetMiB << 20;
  layout::ShardStore::Options storeOptions;
  storeOptions.memBudgetBytes = std::max<std::size_t>(budgetBytes / 2, 1u << 20);
  storeOptions.spillDir =
      options_.spillDir.empty() ? directoryOf(outputPath) : options_.spillDir;
  layout::ShardStore store(storeOptions);
  // Fills get their own store and budget, so the sizing pass's appends
  // never flush the candidate and row spools it is reading.
  layout::ShardStore::Options fillStoreOptions = storeOptions;
  fillStoreOptions.memBudgetBytes =
      std::max<std::size_t>(budgetBytes / 8, 1u << 20);
  layout::ShardStore fillStore(fillStoreOptions);

  // --- Ingest: one parse (stream + flatten + decompose) into per-layer
  // pass-through spools (output order), then route each into its rows ---
  Timer stage;
  std::vector<layout::ShardStore::SpoolId> passWire;  // grown as layers appear
  gds::ExtentScan extents;
  {
    obs::ScopedSpan span("shard.ingest", "engine", {{"job", jid}});
    gds::RectIngest ingest([&](int l, std::int16_t datatype,
                               const geom::Rect& r) {
      if (datatype == 1) return;  // stale fills; run() clears them anyway
      while (passWire.size() <= static_cast<std::size_t>(l)) {
        passWire.push_back(store.createSpool());
      }
      store.append(passWire[static_cast<std::size_t>(l)], r);
      ++rep.wireCount;
    });
    if (!gds::scanLayoutFile(inputPath, ingest, error,
                             options_.readerChunkBytes)) {
      return false;
    }
    if (!ingest.finish(error)) return false;
    extents = ingest.extents();
  }
  const geom::Rect effectiveDie = die.value_or(extents.bbox);
  if (effectiveDie.empty()) {
    return setError(error, "layout is empty and no die given");
  }
  // Every flat shape comes from some structure, so passWire never holds
  // more layers than the extents saw.
  const int numLayers = std::max(extents.maxLayer, 1);
  const layout::WindowGrid grid(effectiveDie, eng.windowSize);
  const int cols = grid.cols(), rows = grid.rows();
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  rep.cols = cols;
  rep.rows = rows;
  ThreadPool pool(eng.numThreads);
  rep.fill.threadsUsed = pool.size();

  const auto nl = static_cast<std::size_t>(numLayers);
  const auto nr = static_cast<std::size_t>(rows);
  const auto nc = static_cast<std::size_t>(cols);
  // Routed wires per (layer, row) with minSpacing halos, then
  // candidates/fills per layer.
  while (passWire.size() < nl) passWire.push_back(store.createSpool());
  std::vector<layout::ShardStore::SpoolId> candSpool(nl), fillSpool(nl);
  std::vector<std::vector<layout::ShardStore::SpoolId>> rowWire(
      nl, std::vector<layout::ShardStore::SpoolId>(nr));
  for (std::size_t l = 0; l < nl; ++l) {
    candSpool[l] = store.createSpool();
    fillSpool[l] = fillStore.createSpool();
    for (std::size_t j = 0; j < nr; ++j) rowWire[l][j] = store.createSpool();
  }
  {
    obs::ScopedSpan span("shard.route", "engine", {{"job", jid}});
    // Replays layer l's wires in input order, calling fn(row, rect) for
    // each row it is routed to.
    const auto replay = [&](std::size_t l, const auto& fn) {
      geom::Rect r;
      int j0, j1;
      for (auto in = store.read(passWire[l]); in.next(r);) {
        if (!layout::routedRows(grid, eng.rules, r, j0, j1)) continue;
        for (int j = j0; j <= j1; ++j) fn(static_cast<std::size_t>(j), r);
      }
    };
    // Count first and size each row spool exactly: growing hundreds of
    // spools by doubling leaves their outgrown buffers in the allocator.
    std::vector<std::size_t> counts(nr);
    for (std::size_t l = 0; l < nl; ++l) {
      std::fill(counts.begin(), counts.end(), 0);
      replay(l, [&](std::size_t j, const geom::Rect&) { ++counts[j]; });
      for (std::size_t j = 0; j < nr; ++j) {
        store.reserve(rowWire[l][j], counts[j]);
      }
      replay(l, [&](std::size_t j, const geom::Rect& r) {
        store.append(rowWire[l][j], r);
      });
    }
  }
  rep.ingestSeconds = stage.elapsedSeconds();
  checkCancel(eng.cancel);

  // Every pass walks bands of up to kBandRows window rows: forEachBand
  // reads the row spools of rows [j0, j1) into `band` serially (the store
  // is single-threaded), then calls fn(j0, j1), which runs one parallelFor
  // of (layer, row) stage-0 tasks (detail::prepareBand) and one over the
  // band's windows. A spool holds, in input order, every wire whose
  // inflated extent touches its row, so the buckets equal the in-memory
  // engine's.
  detail::BandRects band(nl);
  const auto forEachBand = [&](int startRow, int endRow, const auto& fn) {
    for (int j0 = startRow; j0 < endRow; j0 += kBandRows) {
      checkCancel(eng.cancel);
      const int j1 = std::min(endRow, j0 + kBandRows);
      for (std::size_t l = 0; l < nl; ++l) {
        band[l].resize(static_cast<std::size_t>(j1 - j0));
        for (int j = j0; j < j1; ++j) {
          store.readAll(rowWire[l][static_cast<std::size_t>(j)],
                        band[l][static_cast<std::size_t>(j - j0)]);
        }
      }
      fn(j0, j1);
    }
  };

  // --- Bounds pass: per-window wire densities and bounds only ---
  stage.reset();
  detail::WindowPrep scalars;
  scalars.wireDensity.assign(nl, std::vector<double>(numWindows));
  scalars.bounds.assign(nl, {std::vector<double>(numWindows),
                             std::vector<double>(numWindows)});
  const std::vector<std::vector<double>>& wireDen = scalars.wireDensity;
  std::vector<density::DensityBounds>& bounds = scalars.bounds;
  {
    obs::ScopedSpan span("shard.bounds", "engine", {{"job", jid}});
    forEachBand(0, rows, [&](int j0, int) {
      detail::prepareBand(grid, eng, j0, band,
                          static_cast<std::size_t>(j0) * nc, scalars, pool);
    });
  }

  // --- Global target planning (stage 1) ---
  const TargetDensityPlanner planner(eng.plannerWeights);
  TargetPlan plan;
  {
    obs::ScopedSpan span("engine.planning", "engine", {{"job", jid}});
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    plan = planner.plan(bounds, cols, rows);
  }
  rep.fill.planningSeconds += stage.elapsedSeconds();

  // --- FFT global density + shard partition ---
  // The smoothed layer-average density is a layout-wide load model: row
  // bands with dense neighborhoods cost more in candidate generation and
  // sizing, so shard boundaries follow cumulative smoothed load (capped
  // by the byte budget). Partitioning never changes per-window results.
  stage.reset();
  std::vector<int> shardEnd;  // exclusive end row per shard
  {
    std::vector<double> avg(numWindows, 0.0);
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t w = 0; w < numWindows; ++w) avg[w] += wireDen[l][w];
    }
    for (double& v : avg) v /= static_cast<double>(numLayers);
    const density::DensityMap smoothed = density::FftDensity::smooth(
        density::DensityMap(cols, rows, std::move(avg)),
        options_.loadSigmaWindows);
    rep.fftSeconds = stage.elapsedSeconds();

    std::vector<double> rowLoad(nr, 0.0);
    std::vector<std::uint64_t> rowBytes(nr, 0);
    double totalLoad = 0.0;
    std::uint64_t totalBytes = 0;
    for (int j = 0; j < rows; ++j) {
      for (int i = 0; i < cols; ++i) {
        rowLoad[static_cast<std::size_t>(j)] += 0.05 + smoothed.at(i, j);
      }
      for (std::size_t l = 0; l < nl; ++l) {
        rowBytes[static_cast<std::size_t>(j)] +=
            store.count(rowWire[l][static_cast<std::size_t>(j)]) *
            sizeof(geom::Rect) * 4;  // buckets + blocked + regions overhead
      }
      totalLoad += rowLoad[static_cast<std::size_t>(j)];
      totalBytes += rowBytes[static_cast<std::size_t>(j)];
    }
    const std::uint64_t cap =
        std::max<std::uint64_t>(budgetBytes / 4, 1u << 20);
    if (options_.rowsPerShard > 0) {
      for (int j = options_.rowsPerShard; j < rows; j += options_.rowsPerShard) {
        shardEnd.push_back(j);
      }
      shardEnd.push_back(rows);
    } else {
      const int targetShards = std::max(
          1, std::min(rows, static_cast<int>((totalBytes + cap - 1) / cap)));
      const double loadPerShard = totalLoad / targetShards;
      double accLoad = 0.0;
      std::uint64_t accBytes = 0;
      for (int j = 0; j < rows; ++j) {
        accLoad += rowLoad[static_cast<std::size_t>(j)];
        accBytes += rowBytes[static_cast<std::size_t>(j)];
        if (j == rows - 1 || accBytes >= cap ||
            (targetShards > 1 && accLoad >= loadPerShard)) {
          shardEnd.push_back(j + 1);
          accLoad = 0.0;
          accBytes = 0;
        }
      }
    }
  }
  rep.shardCount = static_cast<int>(shardEnd.size());

  // --- Candidate pass (stage 2), shard by shard, band by band ---
  stage.reset();
  const CandidateGenerator generator(eng.rules, eng.candidate);
  prof::count(prof::Counter::kWindows, numWindows);
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("engine.windows").add(numWindows);
  }
  std::vector<std::vector<std::uint32_t>> candCounts(
      nl, std::vector<std::uint32_t>(numWindows, 0));
  {
    int startRow = 0;
    for (std::size_t s = 0; s < shardEnd.size(); ++s) {
      const int endRow = shardEnd[s];
      obs::ScopedSpan span(
          "shard.candidates", "engine",
          {{"job", jid}, {"shard", static_cast<double>(s)}});
      forEachBand(startRow, endRow, [&](int j0, int j1) {
        // Band windows are contiguous in flat order from `first`.
        const std::size_t first = static_cast<std::size_t>(j0) * nc;
        const std::size_t count = static_cast<std::size_t>(j1 - j0) * nc;
        detail::WindowPrep geo;
        geo.fillRegions.assign(nl, std::vector<geom::Region>(count));
        geo.wires.assign(nl, std::vector<std::vector<geom::Rect>>(count));
        geo.blocked.assign(nl, std::vector<std::vector<geom::Rect>>(count));
        detail::prepareBand(grid, eng, j0, band, 0, geo, pool);
        std::vector<WindowProblem> problems(count);
        pool.parallelFor(count, [&](std::size_t b) {
          checkCancel(eng.cancel);
          const std::size_t w = first + b;
          WindowProblem& p = problems[b];
          p = detail::windowProblem(grid, w, geo, b, wireDen, plan);
          static thread_local CandidateGenerator::Scratch scratch;
          prof::ScopedTimer timer(prof::Stage::kCandidates);
          obs::ScopedSpan windowSpan(
              "window.candidates", "window",
              {{"job", jid}, {"w", static_cast<double>(w)}});
          generator.generate(p, scratch);
          // The merge reads only the candidates: free the geometry here.
          p.fillRegions = {};
          p.wires = {};
          p.blocked = {};
        });
        // Serial merge in flat window order: counts, stage-3 bound
        // tightening, and candidate spooling.
        for (std::size_t b = 0; b < count; ++b) {
          const std::size_t w = first + b;
          const WindowProblem& p = problems[b];
          for (std::size_t l = 0; l < nl; ++l) {
            rep.fill.candidateCount += p.fills[l].size();
            candCounts[l][w] = static_cast<std::uint32_t>(p.fills[l].size());
            for (const geom::Rect& f : p.fills[l]) {
              store.append(candSpool[l], f);
            }
            bounds[l].upper[w] = detail::tightenedUpper(bounds[l], w, p, l);
          }
        }
      });
      startRow = endRow;
    }
  }
  rep.fill.candidateSeconds += stage.elapsedSeconds();
  checkCancel(eng.cancel);

  // --- Second planning round (stage 3) ---
  stage.reset();
  {
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    obs::ScopedSpan span("engine.replanning", "engine", {{"job", jid}});
    plan = planner.plan(bounds, cols, rows);
  }
  rep.fill.layerTargets = plan.layerTarget;
  rep.fill.planningSeconds += stage.elapsedSeconds();

  // --- Sizing pass (stage 4), shard by shard, band by band ---
  stage.reset();
  const FillSizer sizer(eng.rules, eng.sizer);
  const bool telemetry = obs::metricsEnabled() || obs::Tracer::enabled();
  std::vector<std::vector<double>> finalDensity(
      telemetry ? nl : 0, std::vector<double>(numWindows, 0.0));
  std::vector<layout::ShardStore::Reader> candReaders;
  candReaders.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    candReaders.push_back(store.read(candSpool[l]));
  }
  {
    int startRow = 0;
    for (std::size_t s = 0; s < shardEnd.size(); ++s) {
      const int endRow = shardEnd[s];
      obs::ScopedSpan span("shard.sizing", "engine",
                           {{"job", jid}, {"shard", static_cast<double>(s)}});
      bool underrun = false;
      forEachBand(startRow, endRow, [&](int j0, int j1) {
        const std::size_t first = static_cast<std::size_t>(j0) * nc;
        const std::size_t count = static_cast<std::size_t>(j1 - j0) * nc;
        detail::WindowPrep geo;
        geo.wires.assign(nl, std::vector<std::vector<geom::Rect>>(count));
        detail::prepareBand(grid, eng, j0, band, 0, geo, pool);
        std::vector<WindowProblem> problems(count);
        std::vector<FillSizer::Stats> windowStats(count);
        // Serial assembly: candidates stream out of the per-layer spools
        // in the same flat window order they were deposited.
        for (std::size_t b = 0; b < count && !underrun; ++b) {
          const std::size_t w = first + b;
          WindowProblem& p = problems[b];
          p.window = grid.windowRect(static_cast<int>(w % nc),
                                     static_cast<int>(w / nc));
          p.fills.resize(nl);
          for (std::size_t l = 0; l < nl; ++l) {
            p.wires.push_back(std::move(geo.wires[l][b]));
            p.wireDensity.push_back(wireDen[l][w]);
            p.targetDensity.push_back(plan.windowTarget[l][w]);
            auto& fills = p.fills[l];
            fills.resize(candCounts[l][w]);
            for (geom::Rect& f : fills) underrun |= !candReaders[l].next(f);
          }
        }
        if (underrun) return;
        pool.parallelFor(count, [&](std::size_t b) {
          checkCancel(eng.cancel);
          static thread_local FillSizer::Scratch scratch;
          prof::ScopedTimer timer(prof::Stage::kSizing);
          obs::ScopedSpan windowSpan(
              "window.sizing", "window",
              {{"job", jid}, {"w", static_cast<double>(first + b)}});
          sizer.size(problems[b], scratch, &windowStats[b]);
          problems[b].wires = {};
        });
        for (std::size_t b = 0; b < count; ++b) {
          const std::size_t w = first + b;
          const WindowProblem& p = problems[b];
          rep.fill.sizerStats.add(windowStats[b]);
          for (std::size_t l = 0; l < nl; ++l) {
            for (const geom::Rect& f : p.fills[l]) {
              fillStore.append(fillSpool[l], f);
            }
            rep.fill.fillCount += p.fills[l].size();
            if (telemetry) finalDensity[l][w] = detail::windowDensity(p, l);
          }
        }
        for (std::size_t l = 0; l < nl; ++l) {
          for (int j = j0; j < j1; ++j) {
            store.release(rowWire[l][static_cast<std::size_t>(j)]);
          }
        }
      });
      if (underrun) return setError(error, "candidate spool underrun");
      startRow = endRow;
    }
  }
  rep.fill.sizingSeconds += stage.elapsedSeconds();

  // --- Output: streaming writer, toGds order (wires then fills, per
  // layer, single TOP cell) ---
  stage.reset();
  {
    prof::ScopedTimer timer(prof::Stage::kOutput);
    obs::ScopedSpan span("shard.output", "engine", {{"job", jid}});
    gds::StreamWriter writer(outputPath);
    if (!writer.ok()) return setError(error, "cannot write " + outputPath);
    writer.beginCell("TOP");
    geom::Rect r;
    for (std::size_t l = 0; l < nl; ++l) {
      const auto gdsLayer = static_cast<std::int16_t>(l + 1);
      layout::ShardStore::Reader wires = store.read(passWire[l]);
      while (wires.next(r)) writer.addRect(gdsLayer, r, /*datatype=*/0);
      layout::ShardStore::Reader fills = fillStore.read(fillSpool[l]);
      while (fills.next(r)) writer.addRect(gdsLayer, r, /*datatype=*/1);
    }
    writer.endCell();
    rep.outputBytes = writer.finish();
    if (rep.outputBytes < 0) {
      return setError(error, "write failed: " + outputPath);
    }
  }
  rep.outputSeconds = stage.elapsedSeconds();
  if (store.ioError() || fillStore.ioError()) {
    return setError(error, "spool IO error");
  }
  rep.spilledBytes = store.spilledBytes() + fillStore.spilledBytes();
  rep.spillEvents = store.spillEvents() + fillStore.spillEvents();

  // --- Telemetry: same per-window/per-layer quality records as run() ---
  if (telemetry) {
    for (std::size_t l = 0; l < nl; ++l) {
      for (std::size_t w = 0; w < numWindows; ++w) {
        obs::recordWindowQuality(
            static_cast<int>(l) + 1, finalDensity[l][w],
            std::abs(finalDensity[l][w] - plan.windowTarget[l][w]));
      }
      const density::DensityMap map(cols, rows, finalDensity[l]);
      const density::DensityMetrics m = density::computeMetrics(map);
      obs::recordLayerQuality(static_cast<int>(l) + 1, m.mean, m.sigma,
                              m.lineHotspot, m.outlierHotspot, eng.jobId);
    }
  }
  rep.fill.totalSeconds = total.elapsedSeconds();
  rep.fill.profile = prof::Registry::instance().snapshot();
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.counter("engine.runs").add();
    reg.counter("engine.candidates").add(rep.fill.candidateCount);
    reg.counter("engine.fills").add(rep.fill.fillCount);
    reg.counter("engine.mcf_warm_starts")
        .add(static_cast<std::uint64_t>(rep.fill.sizerStats.warmStarts));
    reg.counter("engine.mcf_early_exits")
        .add(static_cast<std::uint64_t>(rep.fill.sizerStats.earlyExits));
    reg.counter("engine.sizer_closed_form_solves")
        .add(static_cast<std::uint64_t>(rep.fill.sizerStats.closedFormSolves));
    reg.counter("engine.eco_windows_skipped").add(rep.fill.ecoWindowsSkipped);
    reg.histogram("engine.run_seconds").observe(rep.fill.totalSeconds);
    reg.counter("scale.runs").add();
    reg.counter("scale.shards").add(static_cast<std::uint64_t>(rep.shardCount));
    reg.counter("scale.spill_bytes").add(rep.spilledBytes);
    reg.counter("scale.spill_events").add(rep.spillEvents);
    reg.gauge("scale.rows").set(static_cast<double>(rep.rows));
    reg.gauge("scale.mem_budget_mib")
        .set(static_cast<double>(options_.memBudgetMiB));
    reg.histogram("scale.ingest_seconds").observe(rep.ingestSeconds);
    reg.histogram("scale.fft_seconds").observe(rep.fftSeconds);
    reg.histogram("scale.output_seconds").observe(rep.outputSeconds);
  }
  logInfo("ShardedEngine: %zu fills from %zu candidates in %.2fs "
          "(%d shards, %d rows, %.1f MiB spilled, %d threads)",
          rep.fill.fillCount, rep.fill.candidateCount, rep.fill.totalSeconds,
          rep.shardCount, rep.rows,
          static_cast<double>(rep.spilledBytes) / (1 << 20),
          rep.fill.threadsUsed);
  return true;
}

}  // namespace ofl::fill

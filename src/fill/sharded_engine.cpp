#include "fill/sharded_engine.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "gds/layout_scan.hpp"
#include "gds/stream_writer.hpp"
#include "layout/fill_region.hpp"
#include "layout/shard_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ofl::fill {
namespace {

// Window rows per band of the streamed passes: wider bands mean fewer,
// larger parallelFors but more band geometry held at once.
constexpr int kBandRows = 8;

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
  FillEngineOptions eng = options_.engine;
  eng.windowCache = nullptr;  // streamed runs deposit nothing
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
  std::vector<layout::ShardStore::SpoolId> passWire;  // grown as layers appear
  gds::ExtentScan extents;
  {
    obs::Stage probe("shard.ingest", "engine", {{"job", jid}},
                     &rep.ingestSeconds);
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
    obs::Stage probe("shard.route", "engine", {{"job", jid}},
                     &rep.ingestSeconds);
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
  checkCancel(eng.cancel);

  // Every pass walks bands of up to kBandRows window rows: forEachBand
  // reads the row spools of rows [j0, j1) into `band` serially (the store
  // is single-threaded), then calls fn(j0, j1), which runs the shared
  // stage-0 row task (detail::prepareBand) and the pass's band step. A
  // spool holds, in input order, every wire whose inflated extent touches
  // its row, so the buckets equal the in-memory engine's.
  detail::BandRects band(nl);
  const auto forEachBand = [&](const auto& fn) {
    for (int j0 = 0; j0 < rows; j0 += kBandRows) {
      checkCancel(eng.cancel);
      const int j1 = std::min(rows, j0 + kBandRows);
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
  detail::WindowPrep scalars;
  scalars.wireDensity.assign(nl, std::vector<double>(numWindows));
  scalars.bounds.assign(nl, {std::vector<double>(numWindows),
                             std::vector<double>(numWindows)});
  {
    obs::Stage probe("shard.bounds", "engine", {{"job", jid}},
                     &rep.fill.planningSeconds);
    forEachBand([&](int j0, int) {
      detail::prepareBand(grid, eng, j0, band,
                          static_cast<std::size_t>(j0) * nc, scalars, pool);
    });
  }
  detail::Flow flow(eng, grid, scalars, pool, rep.fill);
  flow.plan();

  // --- Candidate pass (stage 2): each band's candidates go to the
  // per-layer spools in flat window order ---
  std::vector<std::vector<std::uint32_t>> candCounts(
      nl, std::vector<std::uint32_t>(numWindows, 0));
  {
    obs::Stage probe("engine.candidates", "engine", {{"job", jid}},
                     &rep.fill.candidateSeconds);
    forEachBand([&](int j0, int j1) {
      obs::ScopedSpan span("band.candidates", "engine",
                           {{"job", jid}, {"row", static_cast<double>(j0)}});
      // Band windows are contiguous in flat order from `first`.
      const std::size_t first = static_cast<std::size_t>(j0) * nc;
      const std::size_t count = static_cast<std::size_t>(j1 - j0) * nc;
      detail::WindowPrep geo;
      geo.fillRegions.assign(nl, std::vector<geom::Region>(count));
      geo.wires.assign(nl, std::vector<std::vector<geom::Rect>>(count));
      geo.blocked.assign(nl, std::vector<std::vector<geom::Rect>>(count));
      detail::prepareBand(grid, eng, j0, band, 0, geo, pool);
      // The sizing pass rebuilds the wires.
      const std::vector<WindowProblem> problems =
          flow.candidateBand(first, count, geo, /*keepWires=*/false);
      for (std::size_t b = 0; b < count; ++b) {
        for (std::size_t l = 0; l < nl; ++l) {
          const std::vector<geom::Rect>& fills = problems[b].fills[l];
          candCounts[l][first + b] = static_cast<std::uint32_t>(fills.size());
          for (const geom::Rect& f : fills) store.append(candSpool[l], f);
        }
      }
    });
  }
  flow.replan();

  // --- Sizing pass (stage 4): each band's problems are rebuilt from
  // stage 0 and the candidate spools, sized, and their fills spooled ---
  std::vector<layout::ShardStore::Reader> candReaders;
  candReaders.reserve(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    candReaders.push_back(store.read(candSpool[l]));
  }
  bool underrun = false;
  {
    obs::Stage probe("engine.sizing", "engine", {{"job", jid}},
                     &rep.fill.sizingSeconds);
    forEachBand([&](int j0, int j1) {
      obs::ScopedSpan span("band.sizing", "engine",
                           {{"job", jid}, {"row", static_cast<double>(j0)}});
      if (underrun) return;
      const std::size_t first = static_cast<std::size_t>(j0) * nc;
      const std::size_t count = static_cast<std::size_t>(j1 - j0) * nc;
      detail::WindowPrep geo;
      geo.wires.assign(nl, std::vector<std::vector<geom::Rect>>(count));
      detail::prepareBand(grid, eng, j0, band, 0, geo, pool);
      std::vector<WindowProblem> problems(count);
      // Serial assembly: candidates stream out of the per-layer spools
      // in the same flat window order they were deposited.
      for (std::size_t b = 0; b < count && !underrun; ++b) {
        const std::size_t w = first + b;
        WindowProblem& p = problems[b];
        p = flow.problem(w, geo, b);
        p.fills.resize(nl);
        for (std::size_t l = 0; l < nl; ++l) {
          p.fills[l].resize(candCounts[l][w]);
          for (geom::Rect& f : p.fills[l]) underrun |= !candReaders[l].next(f);
        }
      }
      if (underrun) return;
      flow.sizingBand(first, problems);
      for (const WindowProblem& p : problems) {
        for (std::size_t l = 0; l < nl; ++l) {
          for (const geom::Rect& f : p.fills[l]) {
            fillStore.append(fillSpool[l], f);
          }
        }
      }
      for (std::size_t l = 0; l < nl; ++l) {
        for (int j = j0; j < j1; ++j) {
          store.release(rowWire[l][static_cast<std::size_t>(j)]);
        }
      }
    });
  }
  if (underrun) return setError(error, "candidate spool underrun");

  // --- Output: streaming writer, toGds order (wires then fills, per
  // layer, single TOP cell) ---
  {
    obs::Stage probe("engine.output", "engine", {{"job", jid}},
                     prof::Stage::kOutput, &rep.outputSeconds);
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
  if (store.ioError() || fillStore.ioError()) {
    return setError(error, "spool IO error");
  }
  rep.spilledBytes = store.spilledBytes() + fillStore.spilledBytes();
  rep.spillEvents = store.spillEvents() + fillStore.spillEvents();

  flow.finish(total.elapsedSeconds());
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.counter("scale.runs").add();
    reg.counter("scale.spill_bytes").add(rep.spilledBytes);
    reg.counter("scale.spill_events").add(rep.spillEvents);
    reg.gauge("scale.rows").set(static_cast<double>(rep.rows));
    reg.gauge("scale.mem_budget_mib")
        .set(static_cast<double>(options_.memBudgetMiB));
    reg.histogram("scale.ingest_seconds").observe(rep.ingestSeconds);
    reg.histogram("scale.output_seconds").observe(rep.outputSeconds);
  }
  logInfo("ShardedEngine: %zu fills from %zu candidates in %.2fs "
          "(%d rows, %.1f MiB spilled, %d threads)",
          rep.fill.fillCount, rep.fill.candidateCount, rep.fill.totalSeconds,
          rep.rows,
          static_cast<double>(rep.spilledBytes) / (1 << 20),
          rep.fill.threadsUsed);
  return true;
}

}  // namespace ofl::fill

// stream_xl: one contest-scale layout (xl die, ~2.2 M wires, ~140 MB of
// GDSII) streamed through ShardedEngine::runFile (pre-scan, ingest with
// spill, shards, serial output encoder) under a 512 MiB budget.
#include <algorithm>
#include <filesystem>

#include "contest/benchmark_generator.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/stream_reader.hpp"
#include "gds/stream_writer.hpp"
#include "geometry/decompose.hpp"
#include "geometry/polygon.hpp"
#include "workloads.hpp"

namespace ofb {

namespace {

// The input is a kMosaic x kMosaic mosaic of suite-m tiles, each with its
// own generator seed: suite xl's die (160 x 160 windows) and scale, with a
// size that barely depends on the seed, since one suite-xl layout's wire
// count swings by +-10 % from seed to seed.
constexpr int kMosaic = 4;
// A whole-die evaluation needs more than 1 GiB, so quality is scored on
// the first mosaic tile (this many windows per side) under suite m's
// table.
constexpr int kTileWindows = 40;
// Set-up writes the input this many times; setup_s is the median.
constexpr int kSetupReps = 3;

// Collects the shapes of one tile of a filled GDSII stream: fills
// (datatype 1) that lie inside it and wires clipped to it.
class TileCollector : public ofl::gds::StreamEvents {
 public:
  explicit TileCollector(const ofl::geom::Rect& tile)
      : layout_(tile, 3), tile_(tile) {}
  void onBoundary(const ofl::gds::Boundary& b) override {
    const int l = b.layer - 1;
    if (l < 0 || l >= layout_.numLayers()) return;
    for (const ofl::geom::Rect& r :
         ofl::geom::decompose(ofl::geom::Polygon(b.vertices))) {
      if (b.datatype == 1) {
        if (r.xl >= tile_.xl && r.yl >= tile_.yl && r.xh <= tile_.xh &&
            r.yh <= tile_.yh) {
          layout_.layer(l).fills.push_back(r);
        }
      } else {
        const ofl::geom::Rect c{std::max(r.xl, tile_.xl),
                                std::max(r.yl, tile_.yl),
                                std::min(r.xh, tile_.xh),
                                std::min(r.yh, tile_.yh)};
        if (c.xl < c.xh && c.yl < c.yh) layout_.layer(l).wires.push_back(c);
      }
    }
  }
  const ofl::layout::Layout& layout() const { return layout_; }

 private:
  ofl::layout::Layout layout_;
  ofl::geom::Rect tile_;
};

bool tileQuality(const std::string& path, QualityCheck* out) {
  const ofl::geom::Coord side =
      kTileWindows * engineOptions(1).windowSize;
  TileCollector tile({0, 0, side, side});
  std::string error;
  if (!ofl::gds::StreamReader::scan(path, tile, &error)) return false;
  *out = evaluateQuality(tile.layout(), "m");
  return true;
}

}  // namespace

std::size_t writeXlInput(std::uint64_t seed, const std::string& path) {
  using namespace ofl;
  gds::StreamWriter writer(path);
  writer.beginCell("TOP");
  std::size_t wires = 0;
  for (int t = 0; t < kMosaic * kMosaic; ++t) {
    contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("m");
    spec.seed = deriveSeed(seed, 1, static_cast<std::uint64_t>(t));
    const geom::Coord dx = (t % kMosaic) * spec.die.width();
    const geom::Coord dy = (t / kMosaic) * spec.die.height();
    contest::BenchmarkGenerator::generateStream(
        spec, [&](int l, const geom::Rect& w) {
          writer.addRect(static_cast<std::int16_t>(l + 1),
                         {w.xl + dx, w.yl + dy, w.xh + dx, w.yh + dy});
          ++wires;
        });
  }
  writer.endCell();
  return writer.finish() > 0 ? wires : 0;
}

Result runStreamXl(const RunArgs& a) {
  Result r;
  EndToEnd e;
  const std::string input = joinPath(a.workDir, "xl.gds");
  std::size_t wires = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch setup;
    wires = writeXlInput(a.seed, input);
    e.setupSeconds.push_back(setup.seconds());
  }
  if (wires == 0) {
    r.fail("cannot write " + input);
    return r;
  }

  ofl::fill::ShardedOptions options;
  options.engine = engineOptions(nproc());
  options.memBudgetMiB = kStreamBudgetMiB;
  const ofl::fill::ShardedEngine engine(options);
  std::vector<std::uint64_t> digests;
  std::string lastOutput;
  long long failed = 0;
  resetPeakRss();
  // At least two fills, so the output digest can be compared across them.
  for (int op = 0; op < 2 || e.wallSeconds < a.seconds; ++op) {
    const std::string output =
        joinPath(a.workDir, "xl_out_" + std::to_string(op) + ".gds");
    flushDirtyPages();
    const double cpu0 = cpuSeconds();
    Stopwatch wall;
    ofl::fill::ShardedReport report;
    std::string error;
    const bool ok =
        engine.runFile(input, output, std::nullopt, &report, &error);
    const double seconds = wall.seconds();
    e.cpuSeconds += cpuSeconds() - cpu0;
    e.wallSeconds += seconds;
    e.fillSeconds.push_back(seconds);
    e.latencyMs.push_back(seconds * 1e3);
    e.operations += 1;
    e.fillWires.push_back(static_cast<double>(report.wireCount));
    if (!ok || report.fill.fillCount == 0) {
      r.fail("streamed fill: " + (ok ? std::string("no fills") : error));
      ++failed;
      continue;
    }
    e.wires += static_cast<double>(report.wireCount);
    e.outputMB.push_back(static_cast<double>(report.outputBytes) / 1e6);
    // Untimed: digest, then keep only the newest output on disk.
    digests.push_back(digestFile(output));
    if (!lastOutput.empty()) std::filesystem::remove(lastOutput);
    lastOutput = output;
  }
  e.peakRssMiB = peakRssMiB();

  // Checks, untimed.
  if (e.peakRssMiB > static_cast<double>(kStreamBudgetMiB)) {
    r.fail("peak RSS " + std::to_string(e.peakRssMiB) + " MiB over budget");
    failed = static_cast<long long>(e.operations);
  }
  for (const std::uint64_t d : digests) {
    if (d != digests.front()) {
      r.fail("streamed output differs between runs of one input");
      failed = static_cast<long long>(e.operations);
    }
  }
  QualityCheck q;
  if (lastOutput.empty() || !tileQuality(lastOutput, &q)) {
    r.fail("cannot score the streamed output");
  } else {
    e.quality.push_back(q.quality);
    if (q.drcViolations > 0) {
      r.fail("DRC violations in the scored tile");
      failed = static_cast<long long>(e.operations);
    }
  }
  r.attempted = static_cast<long long>(e.operations);
  r.failed = failed;
  emitEndToEnd(e, r);
  return r;
}

}  // namespace ofb

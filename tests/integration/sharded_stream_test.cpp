// Streamed pipeline vs in-memory engine: for the same wires, rules and
// die, fill::ShardedEngine::runFile must produce a byte-identical output
// file to FillEngine::run followed by Writer::writeFile — at any thread
// count, on grids whose row counts cut the 8-row bands of the streamed
// passes full or short, and under a memory budget tight enough to force
// disk spill.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/gds_writer.hpp"
#include "obs/metrics.hpp"
#include "service/layout_io.hpp"

namespace ofl {
namespace {

std::vector<char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<geom::Point> loop(const geom::Rect& r) {
  return {{r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}};
}

class ShardedStreamTest : public ::testing::Test {
 protected:
  void SetUp() override { setLogLevel(LogLevel::kWarn); }

  // Streams `inputPath` through the sharded engine and expects the output
  // file to equal `refPath` byte for byte.
  void expectStreamMatches(const std::string& inputPath,
                           const std::string& refPath,
                           const std::optional<geom::Rect>& die,
                           const fill::ShardedOptions& options,
                           const std::string& what,
                           fill::ShardedReport* reportOut = nullptr) {
    const std::string outPath = inputPath + ".out.gds";
    fill::ShardedReport report;
    std::string error;
    ASSERT_TRUE(fill::ShardedEngine(options).runFile(inputPath, outPath, die,
                                                     &report, &error))
        << what << ": " << error;
    const std::vector<char> expected = readAll(refPath);
    const std::vector<char> streamed = readAll(outPath);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(static_cast<long long>(streamed.size()), report.outputBytes);
    EXPECT_TRUE(streamed == expected)
        << what << ": streamed output diverged (" << streamed.size()
        << " vs " << expected.size() << " bytes)";
    if (reportOut != nullptr) *reportOut = report;
    std::remove(outPath.c_str());
  }

  // Both engines run the same stage steps on the same per-window inputs,
  // so everything in their reports but the seconds and the prof snapshot
  // must agree: counts, the final plan's layer targets (exactly) and every
  // sizer counter.
  static void expectSameReport(const fill::FillReport& streamed,
                               const fill::FillReport& inMemory) {
    EXPECT_EQ(streamed.fillCount, inMemory.fillCount);
    EXPECT_EQ(streamed.candidateCount, inMemory.candidateCount);
    EXPECT_EQ(streamed.ecoWindowsSkipped, inMemory.ecoWindowsSkipped);
    EXPECT_EQ(streamed.threadsUsed, inMemory.threadsUsed);
    EXPECT_EQ(streamed.layerTargets, inMemory.layerTargets);
    const fill::FillSizer::Stats& a = streamed.sizerStats;
    const fill::FillSizer::Stats& b = inMemory.sizerStats;
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.infeasibleFallbacks, b.infeasibleFallbacks);
    EXPECT_EQ(a.droppedFills, b.droppedFills);
    EXPECT_EQ(a.spacingConstraints, b.spacingConstraints);
    EXPECT_EQ(a.closedFormSolves, b.closedFormSolves);
  }

  // Writes the suite's wires-only GDS, fills in memory for the reference
  // bytes, then runs the sharded engine and compares output files.
  // `windowSize` 0 keeps the suite's.
  void expectByteIdentical(const std::string& suite, int threads,
                           std::size_t memBudgetMiB,
                           fill::ShardedReport* reportOut = nullptr,
                           geom::Coord windowSize = 0) {
    const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec(suite);
    layout::Layout chip = contest::BenchmarkGenerator::generate(spec);

    const std::string tag = suite + "_" + std::to_string(threads) + "_" +
                            std::to_string(memBudgetMiB) + "_" +
                            std::to_string(windowSize);
    const std::string inputPath = "/tmp/ofl_shard_" + tag + "_in.gds";
    const std::string refPath = "/tmp/ofl_shard_" + tag + "_ref.gds";
    ASSERT_GT(gds::Writer::writeFile(chip.toGds(), inputPath), 0);

    fill::FillEngineOptions engine;
    engine.windowSize = windowSize > 0 ? windowSize : spec.windowSize;
    engine.rules = spec.rules;
    engine.numThreads = threads;
    const fill::FillReport inMemory = fill::FillEngine(engine).run(chip);
    ASSERT_GT(inMemory.fillCount, 0u);
    ASSERT_GT(gds::Writer::writeFile(chip.toGds(), refPath), 0);

    fill::ShardedOptions options;
    options.engine = engine;
    options.memBudgetMiB = memBudgetMiB;
    fill::ShardedReport report;
    expectStreamMatches(inputPath, refPath, spec.die, options,
                        suite + " with " + std::to_string(threads) +
                            " threads, budget " +
                            std::to_string(memBudgetMiB) + " MiB, window " +
                            std::to_string(engine.windowSize),
                        &report);
    expectSameReport(report.fill, inMemory);

    if (reportOut != nullptr) *reportOut = report;
    std::remove(inputPath.c_str());
    std::remove(refPath.c_str());
  }
};

TEST_F(ShardedStreamTest, ByteIdenticalAtOneAndFourThreads) {
  // The streamed passes walk bands of 8 window rows, so the window size
  // puts the seams. On the tiny die, the suite's 1200-DBU windows give 8
  // rows (one full band), 450-DBU windows 22 rows (bands of 8, 8 and 6)
  // and 565-DBU windows 17 rows (8, 8 and a 1-row band). Every seam
  // between bands must keep the halo and the window order exact.
  const std::pair<geom::Coord, int> grids[] = {{1200, 8}, {450, 22}, {565, 17}};
  for (const int threads : {1, 4}) {
    for (const auto& [windowSize, rows] : grids) {
      fill::ShardedReport report;
      expectByteIdentical("tiny", threads, /*memBudgetMiB=*/64, &report,
                          windowSize);
      EXPECT_EQ(report.rows, rows);
    }
  }
}

TEST_F(ShardedStreamTest, NoDieMatchesLoadedLayoutRun) {
  // Without --die both engines take the die from the input's extents,
  // which count every boundary: here stale fills (datatype 1) on a wired
  // layer and on a layer above every wire, and a layer-0 boundary that
  // pushes the die past the wires, so the grid sits off the wires' origin.
  // Ingest drops all three shapes, but the top one still adds a layer.
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
  const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  gds::Library lib = chip.toGds();
  auto& boundaries = lib.cells.front().boundaries;
  const auto aboveWires = static_cast<std::int16_t>(chip.numLayers() + 1);
  boundaries.push_back({1, 1, loop({100, 100, 400, 400})});
  boundaries.push_back({aboveWires, 1, loop({2000, 2000, 2300, 2600})});
  boundaries.push_back({0, 0, loop({-731, -389, 50, 9000})});
  const std::string inputPath = "/tmp/ofl_shard_nodie_in.gds";
  const std::string refPath = "/tmp/ofl_shard_nodie_ref.gds";
  ASSERT_GT(gds::Writer::writeFile(lib, inputPath), 0);

  fill::FillEngineOptions engine;
  engine.windowSize = spec.windowSize;
  engine.rules = spec.rules;
  layout::Layout loaded;
  std::string error;
  ASSERT_TRUE(
      service::loadFlatLayout(inputPath, std::nullopt, &loaded, &error))
      << error;
  ASSERT_EQ(loaded.die().xl, -731);
  ASSERT_EQ(loaded.die().yl, -389);
  ASSERT_EQ(loaded.numLayers(), chip.numLayers() + 1);
  ASSERT_GT(fill::FillEngine(engine).run(loaded).fillCount, 0u);
  ASSERT_GT(gds::Writer::writeFile(loaded.toGds(), refPath), 0);

  for (const int threads : {1, 4}) {
    fill::ShardedOptions options;
    options.engine = engine;
    options.engine.numThreads = threads;
    fill::ShardedReport report;
    expectStreamMatches(inputPath, refPath, std::nullopt, options,
                        "no die, " + std::to_string(threads) + " threads",
                        &report);
    EXPECT_EQ(report.wireCount, loaded.wireCount());
  }
  std::remove(inputPath.c_str());
  std::remove(refPath.c_str());
}

TEST_F(ShardedStreamTest, TightBudgetSpillsIdentically) {
  fill::ShardedReport report;
  expectByteIdentical("s", /*threads=*/2, /*memBudgetMiB=*/1, &report);
  // A 1 MiB budget on suite s cannot hold the spools in memory: the run
  // must spill to disk, and still match.
  EXPECT_GT(report.spillEvents, 0u);
  EXPECT_GT(report.spilledBytes, 0u);
}

TEST_F(ShardedStreamTest, EmitsClosedFormSolveCounter) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.setEnabled(true);
  fill::ShardedReport report;
  expectByteIdentical("tiny", /*threads=*/1, /*memBudgetMiB=*/64, &report);
  reg.setEnabled(false);
  // The in-memory reference run adds its own count to the same counter.
  EXPECT_GT(report.fill.sizerStats.closedFormSolves, 0);
  EXPECT_EQ(reg.counter("engine.sizer_closed_form_solves").value(),
            2 * static_cast<std::uint64_t>(
                    report.fill.sizerStats.closedFormSolves));
  reg.reset();
}

TEST_F(ShardedStreamTest, EmptyInputWithoutDieFails) {
  const std::string inputPath = "/tmp/ofl_shard_empty_in.gds";
  const std::string outPath = "/tmp/ofl_shard_empty_out.gds";
  gds::Library lib;
  lib.cells.emplace_back();
  ASSERT_GT(gds::Writer::writeFile(lib, inputPath), 0);

  fill::ShardedOptions options;
  fill::ShardedReport report;
  std::string error;
  EXPECT_FALSE(fill::ShardedEngine(options).runFile(
      inputPath, outPath, std::nullopt, &report, &error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  std::remove(inputPath.c_str());
}

TEST_F(ShardedStreamTest, ScanExtentsMatchesLayoutBounds) {
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
  const layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  const std::string inputPath = "/tmp/ofl_shard_scan_in.gds";
  ASSERT_GT(gds::Writer::writeFile(chip.toGds(), inputPath), 0);

  geom::Rect bbox;
  int maxLayer = 0;
  std::string error;
  ASSERT_TRUE(
      fill::ShardedEngine::scanExtents(inputPath, &bbox, &maxLayer, &error))
      << error;
  EXPECT_EQ(maxLayer, chip.numLayers());
  EXPECT_TRUE(spec.die.contains(bbox)) << bbox.str();
  std::remove(inputPath.c_str());
}

}  // namespace
}  // namespace ofl

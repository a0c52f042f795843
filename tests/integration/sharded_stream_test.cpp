// Sharded streaming pipeline vs in-memory engine (ISSUE 9 acceptance):
// for the same wires, rules and die, fill::ShardedEngine::runFile must
// produce a byte-identical output file to FillEngine::run followed by
// Writer::writeFile — at any thread count, any shard partition, and under
// a memory budget tight enough to force multiple shards and disk spill.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/gds_writer.hpp"
#include "obs/metrics.hpp"

namespace ofl {
namespace {

std::vector<char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class ShardedStreamTest : public ::testing::Test {
 protected:
  void SetUp() override { setLogLevel(LogLevel::kWarn); }

  // Writes the suite's wires-only GDS, fills in memory for the reference
  // bytes, then runs the sharded engine and compares output files.
  void expectByteIdentical(const std::string& suite, int threads,
                           std::size_t memBudgetMiB, int rowsPerShard,
                           fill::ShardedReport* reportOut = nullptr) {
    const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec(suite);
    layout::Layout chip = contest::BenchmarkGenerator::generate(spec);

    const std::string tag = suite + "_" + std::to_string(threads) + "_" +
                            std::to_string(memBudgetMiB);
    const std::string inputPath = "/tmp/ofl_shard_" + tag + "_in.gds";
    const std::string refPath = "/tmp/ofl_shard_" + tag + "_ref.gds";
    const std::string outPath = "/tmp/ofl_shard_" + tag + "_out.gds";
    ASSERT_GT(gds::Writer::writeFile(chip.toGds(), inputPath), 0);

    fill::FillEngineOptions engine;
    engine.windowSize = spec.windowSize;
    engine.rules = spec.rules;
    engine.numThreads = threads;
    const fill::FillReport inMemory = fill::FillEngine(engine).run(chip);
    ASSERT_GT(inMemory.fillCount, 0u);
    ASSERT_GT(gds::Writer::writeFile(chip.toGds(), refPath), 0);

    fill::ShardedOptions options;
    options.engine = engine;
    options.memBudgetMiB = memBudgetMiB;
    options.rowsPerShard = rowsPerShard;
    fill::ShardedReport report;
    std::string error;
    ASSERT_TRUE(fill::ShardedEngine(options).runFile(
        inputPath, outPath, std::optional<geom::Rect>(spec.die), &report,
        &error))
        << error;
    EXPECT_EQ(report.fill.fillCount, inMemory.fillCount);
    EXPECT_EQ(report.fill.candidateCount, inMemory.candidateCount);
    EXPECT_EQ(report.fill.sizerStats.solves, inMemory.sizerStats.solves);
    EXPECT_EQ(report.fill.sizerStats.closedFormSolves,
              inMemory.sizerStats.closedFormSolves);

    const std::vector<char> expected = readAll(refPath);
    const std::vector<char> streamed = readAll(outPath);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(static_cast<long long>(streamed.size()), report.outputBytes);
    EXPECT_TRUE(streamed == expected)
        << suite << " with " << threads << " threads, budget " << memBudgetMiB
        << " MiB: streamed output diverged (" << streamed.size() << " vs "
        << expected.size() << " bytes)";

    if (reportOut != nullptr) *reportOut = report;
    std::remove(inputPath.c_str());
    std::remove(refPath.c_str());
    std::remove(outPath.c_str());
  }
};

TEST_F(ShardedStreamTest, ByteIdenticalAtOneAndFourThreads) {
  for (const int threads : {1, 4}) {
    // rowsPerShard = 1 maximizes shard seams: every window row is its own
    // candidate/sizing pass, so any halo or ordering bug shows up.
    expectByteIdentical("tiny", threads, /*memBudgetMiB=*/64,
                        /*rowsPerShard=*/1);
  }
}

TEST_F(ShardedStreamTest, TightBudgetForcesShardsAndSpillIdentically) {
  fill::ShardedReport report;
  expectByteIdentical("s", /*threads=*/2, /*memBudgetMiB=*/1,
                      /*rowsPerShard=*/0, &report);
  // A 1 MiB budget on suite s cannot hold the spools in memory: the run
  // must split into several shards and spill to disk, and still match.
  EXPECT_GT(report.shardCount, 1);
  EXPECT_GT(report.spillEvents, 0u);
  EXPECT_GT(report.spilledBytes, 0u);
}

TEST_F(ShardedStreamTest, EmitsClosedFormSolveCounter) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.setEnabled(true);
  fill::ShardedReport report;
  expectByteIdentical("tiny", /*threads=*/1, /*memBudgetMiB=*/64,
                      /*rowsPerShard=*/0, &report);
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

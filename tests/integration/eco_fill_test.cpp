// ECO incremental fill tests: after a local wire change, runIncremental
// must repair only the affected windows, preserve everything else
// bit-exactly, and restore DRC cleanliness and density quality.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "contest/benchmark_generator.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "layout/drc_checker.hpp"

namespace ofl {
namespace {

class EcoFillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setLogLevel(LogLevel::kWarn);
    spec_ = contest::BenchmarkGenerator::spec("tiny");
    chip_ = contest::BenchmarkGenerator::generate(spec_);
    options_.windowSize = spec_.windowSize;
    options_.rules = spec_.rules;
    fill::FillEngine(options_).run(chip_);
  }

  // Adds a wire block inside window (2, 2) and returns the changed rect.
  geom::Rect mutateWires() {
    const geom::Rect block{2 * 1200 + 200, 2 * 1200 + 200, 2 * 1200 + 800,
                           2 * 1200 + 800};
    // Remove wires overlapping the block so the input stays DRC-clean,
    // then place the block.
    for (int l = 0; l < chip_.numLayers(); ++l) {
      auto& wires = chip_.layer(l).wires;
      wires.erase(
          std::remove_if(wires.begin(), wires.end(),
                         [&](const geom::Rect& w) {
                           return w.expanded(spec_.rules.minSpacing)
                               .overlaps(block);
                         }),
          wires.end());
    }
    chip_.layer(0).wires.push_back(block);
    return block;
  }

  // Copies the filled chip, places `block` on layer 0 (dropping the wires
  // whose spacing halo it overlaps), runs the legacy-mode ECO over
  // `changed` at `threads` threads and digests the serialized GDSII.
  std::uint64_t ecoDigest(const geom::Rect& block, const geom::Rect& changed,
                          int threads) const {
    layout::Layout chip = chip_;
    for (int l = 0; l < chip.numLayers(); ++l) {
      auto& wires = chip.layer(l).wires;
      std::erase_if(wires, [&](const geom::Rect& w) {
        return w.expanded(spec_.rules.minSpacing).overlaps(block);
      });
    }
    chip.layer(0).wires.push_back(block);
    fill::FillEngineOptions o = options_;
    o.numThreads = threads;
    fill::FillEngine(o).runIncremental(chip, changed);
    const std::vector<std::uint8_t> bytes =
        gds::Writer::serialize(chip.toGds());
    return fnv1a64(bytes.data(), bytes.size());
  }

  contest::BenchmarkSpec spec_;
  layout::Layout chip_{{}, 0};
  fill::FillEngineOptions options_;
};

TEST_F(EcoFillTest, PreservesFillsOutsideAffectedWindows) {
  // Record fills far from the change.
  std::vector<std::vector<geom::Rect>> farFills(
      static_cast<std::size_t>(chip_.numLayers()));
  const geom::Rect changed = mutateWires();
  const geom::Rect affectedArea =
      changed.expanded(spec_.rules.minSpacing + spec_.windowSize);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    for (const auto& f : chip_.layer(l).fills) {
      if (!f.overlaps(affectedArea)) {
        farFills[static_cast<std::size_t>(l)].push_back(f);
      }
    }
  }
  fill::FillEngine(options_).runIncremental(chip_, changed);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    for (const auto& f : farFills[static_cast<std::size_t>(l)]) {
      const auto& fills = chip_.layer(l).fills;
      EXPECT_TRUE(std::find(fills.begin(), fills.end(), f) != fills.end())
          << "layer " << l << " lost " << f.str();
    }
  }
}

TEST_F(EcoFillTest, RepairsDrcAfterWireChange) {
  const geom::Rect changed = mutateWires();
  // The new wire overlaps old fills: DRC is broken before the ECO pass.
  EXPECT_FALSE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  fill::FillEngine(options_).runIncremental(chip_, changed);
  const auto violations = layout::DrcChecker(spec_.rules).check(chip_, 10);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.str();
  }
}

TEST_F(EcoFillTest, DensityQualityStaysClose) {
  const layout::WindowGrid grid(chip_.die(), spec_.windowSize);
  const geom::Rect changed = mutateWires();
  fill::FillEngine(options_).runIncremental(chip_, changed);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    const auto after =
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid));
    // The block raised one window's floor; sigma may grow but must stay
    // far below the unfilled layout's (~0.06).
    EXPECT_LT(after.sigma, 0.03) << "layer " << l;
  }
}

TEST_F(EcoFillTest, MuchCheaperThanFullRerun) {
  const geom::Rect changed = mutateWires();
  const fill::FillReport eco =
      fill::FillEngine(options_).runIncremental(chip_, changed);
  // The tiny suite has 8x8 windows; the change touches ~1-4 of them, so
  // the ECO candidate count must be a small fraction of a full run's.
  layout::Layout fresh = contest::BenchmarkGenerator::generate(spec_);
  const fill::FillReport full = fill::FillEngine(options_).run(fresh);
  EXPECT_LT(eco.candidateCount * 4, full.candidateCount);
}

TEST_F(EcoFillTest, WindowCacheSkipsUnchangedWindowsByteIdentically) {
  // With a WindowCache attached, the full run deposits per-window results
  // and its target plans; the ECO pass must then serve every window whose
  // sizing inputs are unchanged from the cache -- and produce EXACTLY the
  // fills of an identical ECO pass that recomputes every window.
  fill::WindowCache cache;
  fill::FillEngineOptions cachedOptions = options_;
  cachedOptions.windowCache = &cache;
  layout::Layout cachedChip = contest::BenchmarkGenerator::generate(spec_);
  fill::FillEngine(cachedOptions).run(cachedChip);
  ASSERT_GT(cache.size(), 0u);

  // The recompute reference: a second cache holding only the full run's
  // target plans. Targets stay pinned exactly as in the served pass, but
  // every window lookup misses, so every window is re-solved.
  const layout::WindowGrid plannedGrid(cachedChip.die(), spec_.windowSize);
  fill::WindowCache::StoredPlan plan;
  ASSERT_TRUE(cache.getPlan(plannedGrid.cols(), plannedGrid.rows(),
                            cachedChip.numLayers(), plan));
  fill::WindowCache planOnly;
  planOnly.storePlan(plan);

  // Same wire edit on the cached chip as mutateWires() applies to chip_.
  // Declare a change region one window wider than the edit: the ring
  // windows get re-solved with unchanged wires, which is exactly the case
  // the cache must serve.
  chip_ = cachedChip;
  const geom::Rect changed = mutateWires().expanded(spec_.windowSize);
  layout::Layout recomputeChip = chip_;

  const fill::FillReport served =
      fill::FillEngine(cachedOptions).runIncremental(chip_, changed);
  EXPECT_GT(served.ecoWindowsSkipped, 0u);

  fill::FillEngineOptions recomputeOptions = options_;
  recomputeOptions.windowCache = &planOnly;
  const fill::FillReport recomputed =
      fill::FillEngine(recomputeOptions).runIncremental(recomputeChip,
                                                        changed);
  EXPECT_EQ(recomputed.ecoWindowsSkipped, 0u);
  EXPECT_EQ(planOnly.hits(), 0);
  EXPECT_GT(planOnly.misses(), 0);

  for (int l = 0; l < chip_.numLayers(); ++l) {
    EXPECT_EQ(chip_.layer(l).fills, recomputeChip.layer(l).fills)
        << "layer " << l << " diverged between served and recomputed ECO";
  }

  // Quality and DRC must hold on the served result like any ECO pass.
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  const layout::WindowGrid grid(chip_.die(), spec_.windowSize);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    const auto after =
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid));
    EXPECT_LT(after.sigma, 0.03) << "layer " << l;
  }
}

TEST_F(EcoFillTest, EdgeCaseChangesReproduceRecordedDigestsAt1And4Threads) {
  // Changed rects at the edges of the affected-window range: a die corner
  // (first window row and column), a rect straddling the border between
  // window rows 1 and 2 (two affected rows), and the whole die (every
  // window affected, nothing frozen). The digests were recorded with the
  // ECO that ran stage 0 over every window and froze the unaffected ones
  // from a whole-layer DensityMap; they pin that restricting stage 0 to the
  // affected rows changes no byte.
  const geom::Rect die = chip_.die();
  const geom::Coord w = spec_.windowSize;
  struct Case {
    const char* name;
    geom::Rect block;
    geom::Rect changed;
    std::uint64_t digest;
  };
  const std::array<Case, 3> cases = {{
      {"die corner",
       {die.xl + 100, die.yl + 100, die.xl + 500, die.yl + 500},
       {die.xl, die.yl, die.xl + 600, die.yl + 600},
       0x261f1cd94dfcc758ull},
      {"row straddle",
       {3 * w + 200, 2 * w - 250, 3 * w + 700, 2 * w + 250},
       {3 * w + 100, 2 * w - 300, 3 * w + 800, 2 * w + 300},
       0x3b3c70411ccf299aull},
      {"whole die",
       {4 * w - 300, 4 * w - 300, 4 * w + 300, 4 * w + 300},
       die,
       0x4cd85f247eba112dull},
  }};
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      EXPECT_EQ(ecoDigest(c.block, c.changed, threads), c.digest)
          << c.name << " at " << threads << " threads";
    }
  }
}

TEST_F(EcoFillTest, NoChangeIsNoOp) {
  // An ECO over an empty region (no wire edits) must keep the solution
  // essentially intact outside the designated windows and stay DRC-clean.
  std::size_t before = chip_.fillCount();
  fill::FillEngine(options_).runIncremental(chip_, {0, 0, 10, 10});
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  // Fill count may differ slightly in the one re-filled corner window.
  EXPECT_NEAR(static_cast<double>(chip_.fillCount()),
              static_cast<double>(before), 60.0);
}

}  // namespace
}  // namespace ofl

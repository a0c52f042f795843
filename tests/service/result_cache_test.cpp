#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "service/fingerprint.hpp"

namespace ofl::service {
namespace {

layout::Layout makeLayout(geom::Coord shift = 0) {
  layout::Layout chip({0, 0, 4000, 4000}, 2);
  chip.layer(0).wires.push_back({100 + shift, 100, 900 + shift, 300});
  chip.layer(0).wires.push_back({1500, 2000, 3200, 2300});
  chip.layer(1).wires.push_back({400, 400, 600, 3600});
  return chip;
}

TEST(FingerprintTest, StableAcrossCalls) {
  const layout::Layout a = makeLayout();
  const layout::Layout b = makeLayout();
  fill::FillEngineOptions opt;
  EXPECT_EQ(layoutContentHash(a), layoutContentHash(b));
  EXPECT_EQ(cacheKey(a, opt), cacheKey(b, opt));
}

TEST(FingerprintTest, LayoutChangesChangeKey) {
  const layout::Layout a = makeLayout();
  const layout::Layout moved = makeLayout(/*shift=*/10);
  EXPECT_NE(layoutContentHash(a), layoutContentHash(moved));

  layout::Layout extraLayer({0, 0, 4000, 4000}, 3);
  extraLayer.layer(0).wires = a.layer(0).wires;
  extraLayer.layer(1).wires = a.layer(1).wires;
  EXPECT_NE(layoutContentHash(a), layoutContentHash(extraLayer));

  layout::Layout otherDie({0, 0, 4001, 4000}, 2);
  otherDie.layer(0).wires = a.layer(0).wires;
  otherDie.layer(1).wires = a.layer(1).wires;
  EXPECT_NE(layoutContentHash(a), layoutContentHash(otherDie));
}

TEST(FingerprintTest, FillsDoNotAffectLayoutHash) {
  // The engine clears existing fills before running, so they must not
  // perturb the key.
  layout::Layout a = makeLayout();
  const std::uint64_t before = layoutContentHash(a);
  a.layer(0).fills.push_back({10, 10, 50, 50});
  EXPECT_EQ(before, layoutContentHash(a));
}

TEST(FingerprintTest, SolutionAffectingOptionsChangeFingerprint) {
  const fill::FillEngineOptions base;
  const std::uint64_t h = optionsFingerprint(base);

  fill::FillEngineOptions o = base;
  o.windowSize = 1234;
  EXPECT_NE(optionsFingerprint(o), h);

  o = base;
  o.rules.minSpacing += 5;
  EXPECT_NE(optionsFingerprint(o), h);

  o = base;
  o.candidate.lambda += 0.25;
  EXPECT_NE(optionsFingerprint(o), h);

  o = base;
  o.sizer.iterations += 1;
  EXPECT_NE(optionsFingerprint(o), h);
}

TEST(FingerprintTest, EverySolutionAffectingFieldChangesFingerprint) {
  // Property test over the full hashed field list of optionsFingerprint
  // (src/service/fingerprint.cpp): flipping any single solution-affecting
  // field must change the key, and every single-field mutation must yield
  // a distinct key (no two fields may alias in the hash).
  struct Mutator {
    const char* name;
    std::function<void(fill::FillEngineOptions&)> apply;
  };
  const std::vector<Mutator> mutators = {
      {"windowSize", [](auto& o) { o.windowSize += 100; }},
      {"rules.minWidth", [](auto& o) { o.rules.minWidth += 1; }},
      {"rules.minSpacing", [](auto& o) { o.rules.minSpacing += 1; }},
      {"rules.minArea", [](auto& o) { o.rules.minArea += 1; }},
      {"rules.maxFillSize", [](auto& o) { o.rules.maxFillSize += 1; }},
      {"rules.maxDensity", [](auto& o) { o.rules.maxDensity -= 0.05; }},
      {"planner.wSigma", [](auto& o) { o.plannerWeights.wSigma += 0.01; }},
      {"planner.wLine", [](auto& o) { o.plannerWeights.wLine += 0.01; }},
      {"planner.wOutlier", [](auto& o) { o.plannerWeights.wOutlier += 0.01; }},
      {"planner.betaSigma",
       [](auto& o) { o.plannerWeights.betaSigma += 0.01; }},
      {"planner.betaLine", [](auto& o) { o.plannerWeights.betaLine += 0.01; }},
      {"planner.betaOutlier",
       [](auto& o) { o.plannerWeights.betaOutlier += 0.01; }},
      {"candidate.lambda", [](auto& o) { o.candidate.lambda += 0.01; }},
      {"candidate.gamma", [](auto& o) { o.candidate.gamma += 0.01; }},
      {"candidate.lithoAvoid",
       [](auto& o) { o.candidate.lithoAvoid = layout::LithoRules{}; }},
      {"candidate.uniformCells",
       [](auto& o) { o.candidate.uniformCells = !o.candidate.uniformCells; }},
      {"sizer.eta", [](auto& o) { o.sizer.eta += 0.01; }},
      {"sizer.etaWireFactor", [](auto& o) { o.sizer.etaWireFactor += 0.01; }},
      {"sizer.iterations", [](auto& o) { o.sizer.iterations += 1; }},
      {"sizer.backend",
       [](auto& o) { o.sizer.backend = mcf::McfBackend::kSuccessiveShortestPath; }},
      {"sizer.useLpSolver",
       [](auto& o) { o.sizer.useLpSolver = !o.sizer.useLpSolver; }},
  };

  const fill::FillEngineOptions base;
  const std::uint64_t baseKey = optionsFingerprint(base);
  std::map<std::uint64_t, const char*> seen;
  for (const Mutator& m : mutators) {
    fill::FillEngineOptions mutated = base;
    m.apply(mutated);
    const std::uint64_t key = optionsFingerprint(mutated);
    EXPECT_NE(key, baseKey) << m.name << " must affect the fingerprint";
    const auto [it, inserted] = seen.emplace(key, m.name);
    EXPECT_TRUE(inserted) << m.name << " collides with " << it->second;
  }
}

TEST(FingerprintTest, LithoRuleValuesAreHashed) {
  // The optional litho band is hashed by value, not just by presence.
  fill::FillEngineOptions a;
  a.candidate.lithoAvoid = layout::LithoRules{};
  fill::FillEngineOptions b = a;
  b.candidate.lithoAvoid->forbiddenLo += 1;
  fill::FillEngineOptions c = a;
  c.candidate.lithoAvoid->forbiddenHi += 1;
  EXPECT_NE(optionsFingerprint(a), optionsFingerprint(b));
  EXPECT_NE(optionsFingerprint(a), optionsFingerprint(c));
  EXPECT_NE(optionsFingerprint(b), optionsFingerprint(c));
}

TEST(FingerprintTest, ThreadCountDoesNotChangeFingerprint) {
  // PR-1 determinism contract: output is bit-identical for any thread
  // count, so a cached result is valid across --threads-per-job settings.
  fill::FillEngineOptions a;
  fill::FillEngineOptions b;
  a.numThreads = 1;
  b.numThreads = 8;
  EXPECT_EQ(optionsFingerprint(a), optionsFingerprint(b));

  CancelToken token;
  b.cancel = &token;
  EXPECT_EQ(optionsFingerprint(a), optionsFingerprint(b));
}

std::shared_ptr<const CachedFill> makeEntry(int fills) {
  layout::Layout chip({0, 0, 1000, 1000}, 1);
  for (int i = 0; i < fills; ++i) {
    chip.layer(0).fills.push_back({i * 10, 0, i * 10 + 5, 5});
  }
  fill::FillReport report;
  report.fillCount = static_cast<std::size_t>(fills);
  return CachedFill::capture(chip, report);
}

TEST(ResultCacheTest, HitRefreshesAndReplays) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, makeEntry(3));

  const auto hit = cache.find(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->report.fillCount, 3u);

  layout::Layout chip({0, 0, 1000, 1000}, 1);
  chip.layer(0).fills.push_back({900, 900, 950, 950});  // stale; replaced
  hit->applyTo(chip);
  EXPECT_EQ(chip.fillCount(), 3u);

  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);
}

// Packed entries replay every fill exactly, in order, including
// coordinates and deltas that do not fit in 32 bits and the extremes of
// the 64-bit range, where the delta arithmetic wraps.
TEST(CachedFillTest, PackedRoundTripBeyondInt32) {
  constexpr geom::Coord kMax = std::numeric_limits<geom::Coord>::max();
  constexpr geom::Coord kMin = std::numeric_limits<geom::Coord>::min();
  layout::Layout chip({0, 0, 1000, 1000}, 3);
  chip.layer(0).fills = {{10, 20, 30, 45},
                         {5, 20, 9, 21},  // negative delta from the last
                         {-7000000000, 3, -6999999990, 9000000000},
                         {kMin, kMin, kMax, kMax},
                         {kMax - 1, kMin + 1, kMax, kMin + 2},
                         {0, 0, 0, 0}};
  // Layer 1 stays empty.
  for (geom::Coord i = 0; i < 100; ++i) {
    chip.layer(2).fills.push_back(
        {i * 4000000000LL, -i, i * 4000000000LL + 7, 50 - i});
  }
  fill::FillReport report;
  report.fillCount = chip.fillCount();
  const auto entry = CachedFill::capture(chip, report);
  ASSERT_EQ(entry->layers.size(), 3u);
  EXPECT_EQ(entry->layers[2].count, 100u);

  const auto decoded = entry->fillsPerLayer();
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(decoded[static_cast<std::size_t>(l)], chip.layer(l).fills)
        << "layer " << l;
  }
  layout::Layout replay({0, 0, 1000, 1000}, 3);
  replay.layer(1).fills.push_back({1, 1, 2, 2});  // stale; replaced
  entry->applyTo(replay);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(replay.layer(l).fills, chip.layer(l).fills) << "layer " << l;
  }

  // fromFills packs the same bytes and charges the same footprint.
  const auto rebuilt = CachedFill::fromFills(decoded, report);
  EXPECT_EQ(rebuilt->bytes, entry->bytes);
  EXPECT_EQ(rebuilt->fillsPerLayer(), decoded);
}

// The cache charges the packed size, not sizeof(Rect) per fill: each of
// these fills packs to four one-byte varints.
TEST(CachedFillTest, ChargesPackedBytes) {
  const auto entry = makeEntry(1000);
  EXPECT_EQ(entry->bytes, 256u + 64u + 1000u * 4u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderTightBudget) {
  const auto entry = makeEntry(2);
  // Budget fits exactly two entries of this size.
  ResultCache cache(2 * entry->bytes);
  cache.insert(1, makeEntry(2));
  cache.insert(2, makeEntry(2));
  EXPECT_EQ(cache.counters().entries, 2u);

  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.find(1), nullptr);
  cache.insert(3, makeEntry(2));

  auto c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);  // evicted
  EXPECT_NE(cache.find(3), nullptr);

  c = cache.counters();
  EXPECT_LE(c.bytesUsed, c.byteBudget);
}

TEST(ResultCacheTest, OversizedEntryDroppedNotInserted) {
  ResultCache cache(64);  // smaller than any real entry
  cache.insert(7, makeEntry(100));
  const auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.oversized, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(cache.find(7), nullptr);
}

TEST(ResultCacheTest, ZeroBudgetDisablesCache) {
  ResultCache cache(0);
  cache.insert(1, makeEntry(1));
  EXPECT_EQ(cache.find(1), nullptr);
  const auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.insertions, 0u);
}

TEST(ResultCacheTest, ReplacingSameKeyKeepsOneEntry) {
  ResultCache cache(1 << 20);
  cache.insert(5, makeEntry(1));
  cache.insert(5, makeEntry(4));
  const auto c = cache.counters();
  EXPECT_EQ(c.entries, 1u);
  const auto hit = cache.find(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->report.fillCount, 4u);  // second insert wins
}

}  // namespace
}  // namespace ofl::service

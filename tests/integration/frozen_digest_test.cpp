// Frozen-digest regression test for the whole fill engine. Two families of
// random layouts (50 seeds each) are filled with the default engine at 1
// and 4 threads, and the FNV-1a digest of each serialized GDS must equal a
// recorded constant.
//
// The constants were recorded with the original unindexed pipeline: brute
// neighbor scans in candidate scoring and sizing, the std::map sweep
// kernel, cold-started MCF solves with a full spanning-tree rebuild after
// every pivot and no early exits, on 1 thread. They pin the contract that
// the spatial indexes, the flat sweep, the sizer's closed form for passes
// without spacing pairs and the incremental pivot update never change a
// single output byte.
//
// The ECO digests pin runIncremental's bytes in both of its planning
// modes: legacy (no window cache: unaffected windows frozen at their
// as-filled density) and pinned (targets pinned to the plans a cached
// run() deposited).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fill/fill_engine.hpp"
#include "fill/window_cache.hpp"
#include "gds/gds_writer.hpp"
#include "layout/layout.hpp"
#include "verify/layout_gen.hpp"

namespace ofl {
namespace {

constexpr int kSeeds = 50;

// General random layouts (seeds 1..50, 600-DBU windows), dense enough that
// per-window neighbor sets regularly cross the spatial-index threshold.
constexpr std::array<std::uint64_t, kSeeds> kGeneralDigests = {
    0x20da9a09cca27528ull, 0x84dab7004811917aull, 0x286c267ac98567c5ull,
    0x28515af75b7a9e76ull, 0x1a78a55981009155ull, 0x1a3b99a198ea1c98ull,
    0xbf1fec4a1ba34ee0ull, 0x01714415b1fbce21ull, 0xc6fd721d8c29ef8full,
    0x987fa0162f57afe0ull, 0x7e475b62c5990569ull, 0xc6a1cf893a2264a6ull,
    0xd62a2354abffbcc3ull, 0xd19bcb1e67a4dad6ull, 0x26288686315b2d7aull,
    0xf403be724a04ff07ull, 0xd91ecd30dee5d7c5ull, 0x89450e175d55b37eull,
    0x9b86178534a8efe6ull, 0xf78ccff2698f008dull, 0x39ad236f13d94595ull,
    0xe2c0f9805aa1f0daull, 0xa2fbde1f8933ec47ull, 0x81e93d36d10fdbafull,
    0x998497f53747b971ull, 0x4e95cda119e4ae27ull, 0x4de06e8a83d43330ull,
    0x23ed46ae86de46daull, 0x26b24735a982035eull, 0xb8c5cf9371d0fd85ull,
    0x8b11cba2dfc1495bull, 0xcc7cbebd86955044ull, 0x65ec59ff25c05e31ull,
    0x70d3d7f3cef2fe6cull, 0x423b7ae8afcd8bffull, 0x29ce0ff8899f6c4cull,
    0x67db14981927f018ull, 0x574419a39c2f9c0aull, 0xbaf19d8dec1be57bull,
    0xa5a7fff635e43632ull, 0x130e602a69634291ull, 0x2215352412b485f6ull,
    0x83bb6e7485bffe65ull, 0x40f7ca4a15728d54ull, 0x341575da30dc3549ull,
    0x6c48b054b476d777ull, 0xa8dd9842cf942301ull, 0xa51604b21f3440fcull,
    0x2114b8aa135b3216ull, 0x9f32b82c949f484full,
};

// Block-and-wire layouts on a 2x2-window die (seeds 0..49, 800-DBU
// windows): non-uniform enough that sizing has real work in every window.
// Candidate generation leaves no spacing pair here either, so every
// sizing pass takes the closed form.
constexpr std::array<std::uint64_t, kSeeds> kBlockWireDigests = {
    0x964dc3f79a3a652aull, 0x7f49202520f11f3eull, 0x26ca269e590352cfull,
    0xadbf9997700066e1ull, 0x0d4c726587f16819ull, 0x5e6f9d4323080315ull,
    0x7e83d535fe84d025ull, 0x58b4b17e5c04c36eull, 0x71de0f2d25f12802ull,
    0x5c98c614fdb0a326ull, 0xacda030b1359b009ull, 0xb7da909731400f51ull,
    0x1b245dbc3a79e9fdull, 0xcf6d5d7390f94f59ull, 0x17fa39d4cb940979ull,
    0x326289706e7b610full, 0xf8c294536e8d56c8ull, 0x95c81f651361d049ull,
    0xc807f4ec19247106ull, 0x1c3c08c26b0d0080ull, 0xb976120956538788ull,
    0x3f907de7cafae728ull, 0x1b0ed8d75e21171full, 0xbc5529ad9522f0dcull,
    0xe8f57429041d80a5ull, 0xdaff65aae71b93f7ull, 0xad448517fa57c51bull,
    0xecf65375727560d2ull, 0xc0b6a6822a8cafcbull, 0xacf9b6e30dfd89fcull,
    0x57e6c2cd9a6bca27ull, 0xa9021c3238747a12ull, 0x30db29153a80a90dull,
    0xbd4dd1aed5d65449ull, 0x1479b4bfa91456f6ull, 0x672aa748a9a2faf8ull,
    0x010620cd1e572037ull, 0xd422061568033ecfull, 0x61368604fa08b1e0ull,
    0x277c3103eaca5ddeull, 0x6c8917ff43253824ull, 0xf05a634743f817b8ull,
    0x9d78c24bbfdb0f30ull, 0x1221ae9de6bd2348ull, 0xcbd5effb35c08c1full,
    0x0f815090e4de81c9ull, 0x5237a7218ca03bd5ull, 0x92902a72039c5a45ull,
    0x8930008863109961ull, 0xf445091f47a72062ull,
};

// ECO layouts: general seeds 1..kEcoSeeds, filled with run(), then one
// wire edit, then runIncremental. Recorded before run() and runFile()
// shared their stage 1-4 steps.
constexpr int kEcoSeeds = 8;
constexpr std::array<std::uint64_t, kEcoSeeds> kEcoLegacyDigests = {
    0x78c36f5db85eda3eull, 0x84db418b7f12be39ull, 0x9b7d6ed19eb59d01ull,
    0x2309ac4f56675180ull, 0x2005899bb5e85a1aull, 0xa494e9b727390775ull,
    0x09b7eea2df45b22aull, 0xf124ef180bae2798ull,
};
constexpr std::array<std::uint64_t, kEcoSeeds> kEcoPinnedDigests = {
    0x88a5b90c1487040dull, 0x6babbce321dabac3ull, 0xf0062e76a31a6cf0ull,
    0x675cce09f8c6a3d8ull, 0xe3eb3a69221529aeull, 0x5ade9836e93375b0ull,
    0x211002541b0d288bull, 0xa8b07cea3d2e62bdull,
};

layout::DesignRules rules() {
  layout::DesignRules r;
  r.minWidth = 10;
  r.minSpacing = 10;
  r.minArea = 150;
  r.maxFillSize = 200;
  return r;
}

layout::Layout generalLayout(std::uint64_t seed) {
  Rng rng(seed);
  testing::LayoutGen::LayoutParams params;
  params.minDieExtent = 1200;
  params.maxDieExtent = 2400;
  params.minLayers = 2;
  params.maxLayers = 3;
  params.minWiresPerLayer = 20;
  params.maxWiresPerLayer = 90;
  return testing::LayoutGen::randomLayout(rng, params);
}

layout::Layout blockWireLayout(std::uint64_t seed) {
  Rng rng(seed);
  layout::Layout chip({0, 0, 1600, 1600}, 2);
  for (int l = 0; l < 2; ++l) {
    const int blocks = static_cast<int>(rng.uniformInt(0, 3));
    for (int b = 0; b < blocks; ++b) {
      const geom::Coord w = rng.uniformInt(100, 600);
      const geom::Coord h = rng.uniformInt(100, 600);
      const geom::Coord x = rng.uniformInt(0, 1600 - w);
      const geom::Coord y = rng.uniformInt(0, 1600 - h);
      chip.layer(l).wires.push_back({x, y, x + w, y + h});
    }
    const int runs = static_cast<int>(rng.uniformInt(4, 30));
    for (int k = 0; k < runs; ++k) {
      const geom::Coord len = rng.uniformInt(80, 900);
      const geom::Coord x = rng.uniformInt(0, 1600 - len);
      const geom::Coord y = rng.uniformInt(0, 1600 - 20);
      if (l % 2 == 0) {
        chip.layer(l).wires.push_back({x, y, x + len, y + 20});
      } else {
        chip.layer(l).wires.push_back({y, x, y + 20, x + len});
      }
    }
  }
  return chip;
}

std::uint64_t gdsDigest(const layout::Layout& original, geom::Coord window,
                        int threads, fill::FillReport* report) {
  layout::Layout chip = original;
  fill::FillEngineOptions o;
  o.windowSize = window;
  o.rules = rules();
  o.numThreads = threads;
  *report = fill::FillEngine(o).run(chip);
  const std::vector<std::uint8_t> bytes = gds::Writer::serialize(chip.toGds());
  return fnv1a64(bytes.data(), bytes.size());
}

// Fills `original` with run(), adds a 90 x 60 wire block at the die
// center on layer 0, re-fills with runIncremental over the block grown by
// one window (so the pass also revisits windows the edit left unchanged)
// and digests the result.
// With `cached`, both runs share a WindowCache, so the ECO pass pins its
// targets to run()'s plans; without, it takes the legacy planning.
std::uint64_t ecoDigest(const layout::Layout& original, int threads,
                        bool cached, fill::FillReport* report) {
  layout::Layout chip = original;
  fill::WindowCache cache;
  fill::FillEngineOptions o;
  o.windowSize = 600;
  o.rules = rules();
  o.numThreads = threads;
  if (cached) o.windowCache = &cache;
  const fill::FillEngine engine(o);
  engine.run(chip);
  const geom::Rect die = chip.die();
  const geom::Coord cx = (die.xl + die.xh) / 2, cy = (die.yl + die.yh) / 2;
  const geom::Rect block{cx - 45, cy - 30, cx + 45, cy + 30};
  chip.layer(0).wires.push_back(block);
  *report = engine.runIncremental(chip, block.expanded(o.windowSize));
  const std::vector<std::uint8_t> bytes = gds::Writer::serialize(chip.toGds());
  return fnv1a64(bytes.data(), bytes.size());
}

TEST(FrozenDigestTest, DefaultEngineReproducesRecordedDigestsAt1And4Threads) {
  setLogLevel(LogLevel::kWarn);
  long long closedFormSolves = 0;
  for (int s = 0; s < kSeeds; ++s) {
    const layout::Layout general =
        generalLayout(static_cast<std::uint64_t>(s) + 1);
    const layout::Layout blockWire =
        blockWireLayout(static_cast<std::uint64_t>(s));
    for (const int threads : {1, 4}) {
      fill::FillReport report;
      EXPECT_EQ(gdsDigest(general, 600, threads, &report),
                kGeneralDigests[static_cast<std::size_t>(s)])
          << "general seed " << s + 1 << " at " << threads << " threads";
      closedFormSolves += report.sizerStats.closedFormSolves;
      EXPECT_EQ(gdsDigest(blockWire, 800, threads, &report),
                kBlockWireDigests[static_cast<std::size_t>(s)])
          << "block-wire seed " << s << " at " << threads << " threads";
      closedFormSolves += report.sizerStats.closedFormSolves;
    }
  }
  // The digests pin nothing about the closed form unless it engages. These
  // layouts have no coupled pass; the min-cost flow those passes take is
  // covered by FillSizerTest.ClosedFormAndCoupledPassesMatchReferenceBackends.
  EXPECT_GT(closedFormSolves, 0);
}

TEST(FrozenDigestTest, EcoReproducesRecordedDigestsAt1And4Threads) {
  setLogLevel(LogLevel::kWarn);
  std::size_t skipped = 0;
  for (int s = 0; s < kEcoSeeds; ++s) {
    const layout::Layout general =
        generalLayout(static_cast<std::uint64_t>(s) + 1);
    for (const int threads : {1, 4}) {
      fill::FillReport report;
      EXPECT_EQ(ecoDigest(general, threads, /*cached=*/false, &report),
                kEcoLegacyDigests[static_cast<std::size_t>(s)])
          << "legacy ECO, seed " << s + 1 << " at " << threads << " threads";
      EXPECT_EQ(report.ecoWindowsSkipped, 0u);
      EXPECT_EQ(ecoDigest(general, threads, /*cached=*/true, &report),
                kEcoPinnedDigests[static_cast<std::size_t>(s)])
          << "pinned ECO, seed " << s + 1 << " at " << threads << " threads";
      skipped += report.ecoWindowsSkipped;
    }
  }
  // The pinned digests only pin the cache-served path if it engages.
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace ofl

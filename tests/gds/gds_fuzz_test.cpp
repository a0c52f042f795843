// Fuzz-style robustness tests for the GDS reader and round-trip property
// tests for random libraries. The reader must never crash or hang on
// corrupted bytes — it may only return nullopt or a best-effort parse.
// The same corruptions hit the batch service's spliced cache hits: the
// in-memory scan, the splice validation and the raw-key alias lookup.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_writer.hpp"
#include "gds/stream_reader.hpp"
#include "layout/layout.hpp"
#include "service/fingerprint.hpp"
#include "service/result_cache.hpp"
#include "service/splice.hpp"
#include "verify/layout_gen.hpp"

namespace ofl::gds {
namespace {

Library randomLibrary(Rng& rng) {
  return testing::LayoutGen::randomLibrary(rng);
}

TEST(GdsFuzzTest, RandomLibrariesRoundTrip) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 50; ++trial) {
    const Library lib = randomLibrary(rng);
    const auto bytes = Writer::serialize(lib);
    ASSERT_EQ(static_cast<long long>(bytes.size()), Writer::streamSize(lib))
        << "trial " << trial;
    const auto parsed = Reader::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;
    ASSERT_EQ(parsed->cells.size(), lib.cells.size());
    for (std::size_t c = 0; c < lib.cells.size(); ++c) {
      ASSERT_EQ(parsed->cells[c].boundaries.size(),
                lib.cells[c].boundaries.size());
      for (std::size_t b = 0; b < lib.cells[c].boundaries.size(); ++b) {
        EXPECT_EQ(parsed->cells[c].boundaries[b].layer,
                  lib.cells[c].boundaries[b].layer);
        EXPECT_EQ(parsed->cells[c].boundaries[b].vertices,
                  lib.cells[c].boundaries[b].vertices);
      }
    }
  }
}

// Writer::writeFile streams through StreamWriter; its bytes must equal
// the in-memory serialize() for multi-cell libraries with references,
// odd-length names and non-default units.
TEST(GdsFuzzTest, WriteFileMatchesSerialize) {
  Rng rng(0xF00D);
  const std::string path = "/tmp/ofl_gds_fuzz_writefile.gds";
  for (int trial = 0; trial < 50; ++trial) {
    Library lib = randomLibrary(rng);
    lib.name = trial % 2 == 0 ? "FUZZLIB" : "FUZZ";
    lib.userUnitsPerDbu = rng.uniformReal(1e-4, 1.0);
    lib.metersPerDbu = rng.uniformReal(1e-10, 1e-6);
    for (std::size_t c = 1; c < lib.cells.size(); ++c) {
      Cell& top = lib.cells.front();
      const std::string& name = lib.cells[c].name;
      top.srefs.push_back(
          {name, {rng.uniformInt(-5000, 5000), rng.uniformInt(-5000, 5000)}});
      top.arefs.push_back({name,
                           {rng.uniformInt(-5000, 5000), 0},
                           static_cast<int>(rng.uniformInt(1, 9)),
                           static_cast<int>(rng.uniformInt(1, 9)),
                           rng.uniformInt(1, 400),
                           rng.uniformInt(1, 400)});
    }
    const auto expected = Writer::serialize(lib);
    ASSERT_EQ(Writer::writeFile(lib, path),
              static_cast<long long>(expected.size()))
        << "trial " << trial;
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> actual{std::istreambuf_iterator<char>(in),
                                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
  std::remove(path.c_str());
}

// A flat layout file as the batch service caches it: the stream bytes,
// the WireSplice learned on them and a cache holding one entry that the
// bytes' raw key aliases.
struct CachedInput {
  std::vector<std::uint8_t> bytes;
  service::WireSplice splice;
  fill::FillEngineOptions options;
  std::uint64_t rawKey = 0;
  service::ResultCache cache{1 << 20};

  explicit CachedInput(Rng& rng) {
    layout::Layout chip(geom::Rect{0, 0, 20000, 20000}, 3);
    for (int l = 0; l < chip.numLayers(); ++l) {
      for (int i = 0; i < 12; ++i) {
        const geom::Coord x = rng.uniformInt(0, 18000);
        const geom::Coord y = rng.uniformInt(0, 18000);
        chip.layer(l).wires.push_back(
            {x, y, x + rng.uniformInt(1, 2000), y + rng.uniformInt(1, 2000)});
        chip.layer(l).fills.push_back({y, x, y + 100, x + 100});
      }
    }
    bytes = Writer::serialize(chip.toGds());
    const auto found = service::findWireSpans(bytes, chip);
    EXPECT_TRUE(found.has_value());
    if (found.has_value()) splice = *found;
    rawKey = keyOf(bytes);
    cache.insert(1, service::CachedFill::capture(chip, {}));
    cache.addAlias(rawKey, 1, splice);
    EXPECT_TRUE(cache.findAlias(rawKey, bytes).has_value());
  }

  std::uint64_t keyOf(std::span<const std::uint8_t> input) const {
    return service::rawInputKey(input, options, std::nullopt,
                                service::JobKind::kFill, geom::Rect{});
  }

  // The checks every corrupted copy of the input gets: the in-memory scan
  // and the splice validation must stay inside the bytes (the sanitizer
  // builds catch any read past them), and the alias of the intact input
  // must not answer for the corrupted one.
  void probe(std::span<const std::uint8_t> corrupted) {
    LibraryCollector collector;
    std::string error;
    (void)StreamReader::scan(corrupted, collector, &error);
    (void)service::validSplice(corrupted, splice);
    EXPECT_FALSE(cache.findAlias(keyOf(corrupted), corrupted).has_value());
  }
};

TEST(GdsFuzzTest, RandomByteFlipsNeverCrash) {
  Rng rng(0xBEEF);
  const Library lib = randomLibrary(rng);
  const auto original = Writer::serialize(lib);
  Rng inputRng(0xBEEF + 1);
  CachedInput cached(inputRng);
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const int flips = static_cast<int>(rng.uniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos =
          static_cast<std::size_t>(rng.uniformInt(0, static_cast<long long>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<std::uint8_t>(rng.uniformInt(1, 255));
    }
    // Must terminate without crashing; result validity is optional.
    (void)Reader::parse(bytes);

    auto input = cached.bytes;
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          inputRng.uniformInt(0, static_cast<long long>(input.size()) - 1));
      input[pos] ^= static_cast<std::uint8_t>(inputRng.uniformInt(1, 255));
    }
    if (input != cached.bytes) cached.probe(input);
  }
}

TEST(GdsFuzzTest, RandomTruncationsNeverCrash) {
  Rng rng(0xCAFE);
  const Library lib = randomLibrary(rng);
  const auto original = Writer::serialize(lib);
  Rng inputRng(0xCAFE + 1);
  CachedInput cached(inputRng);
  for (int trial = 0; trial < 200; ++trial) {
    const auto cut =
        static_cast<std::size_t>(rng.uniformInt(0, static_cast<long long>(original.size())));
    const std::span<const std::uint8_t> partial(original.data(), cut);
    if (cut < original.size()) {
      EXPECT_FALSE(Reader::parse(partial).has_value());
    }
    const auto inputCut = static_cast<std::size_t>(inputRng.uniformInt(
        0, static_cast<long long>(cached.bytes.size()) - 1));
    const std::span<const std::uint8_t> input(cached.bytes.data(), inputCut);
    EXPECT_FALSE(service::validSplice(input, cached.splice));
    cached.probe(input);
  }
}

TEST(GdsFuzzTest, PureRandomBytesNeverCrash) {
  Rng rng(0xD00F);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniformInt(0, 512)));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    (void)Reader::parse(junk);
  }
}

}  // namespace
}  // namespace ofl::gds

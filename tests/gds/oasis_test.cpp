#include "gds/oasis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace ofl::gds {
namespace {

TEST(VarintTest, UnsignedRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 20, 1ull << 40,
        ~0ull}) {
    std::vector<std::uint8_t> buf;
    putVarUint(buf, v);
    std::size_t pos = 0;
    const auto back = getVarUint(buf, pos);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, SignedZigzagRoundTrip) {
  for (const std::int64_t v : {0ll, 1ll, -1ll, 63ll, -64ll, 1000000ll,
                               -1000000ll, (1ll << 40), -(1ll << 40)}) {
    std::vector<std::uint8_t> buf;
    putVarInt(buf, v);
    std::size_t pos = 0;
    const auto back = getVarInt(buf, pos);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
  }
}

TEST(VarintTest, SmallMagnitudesAreOneByte) {
  for (const std::int64_t v : {0ll, 1ll, -1ll, 50ll, -63ll}) {
    std::vector<std::uint8_t> buf;
    putVarInt(buf, v);
    EXPECT_EQ(buf.size(), 1u) << v;
  }
}

TEST(VarintTest, TruncationDetected) {
  std::vector<std::uint8_t> buf;
  putVarUint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(getVarUint(buf, pos).has_value());
}

Library sampleLibrary() {
  Library lib;
  lib.name = "OAS";
  lib.cells.emplace_back();
  Cell& cell = lib.cells.back();
  cell.name = "TOP";
  Writer::addRect(cell, 1, {0, 0, 100, 50});
  Writer::addRect(cell, 1, {200, 0, 300, 50}, 1);
  Writer::addRect(cell, 2, {-50, -60, 10, 20});
  Boundary poly;
  poly.layer = 3;
  poly.vertices = {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  cell.boundaries.push_back(poly);
  cell.srefs.push_back({"SUB", {1000, 2000}});
  Aref aref;
  aref.cellName = "SUB";
  aref.origin = {0, 5000};
  aref.cols = 7;
  aref.rows = 3;
  aref.pitchX = 120;
  aref.pitchY = 140;
  cell.arefs.push_back(aref);
  lib.cells.emplace_back();
  lib.cells.back().name = "SUB";
  Writer::addRect(lib.cells.back(), 1, {0, 0, 80, 80}, 1);
  return lib;
}

// Order-insensitive boundary comparison (the OASIS writer reorders rects
// for delta locality).
void expectSameShapes(const Cell& a, const Cell& b) {
  auto key = [](const Boundary& x) {
    std::vector<std::pair<geom::Coord, geom::Coord>> v;
    for (const geom::Point& p : x.vertices) v.push_back({p.x, p.y});
    std::sort(v.begin(), v.end());
    return std::tuple(x.layer, x.datatype, v);
  };
  std::vector<decltype(key(Boundary{}))> ka, kb;
  for (const auto& x : a.boundaries) ka.push_back(key(x));
  for (const auto& x : b.boundaries) kb.push_back(key(x));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  EXPECT_EQ(ka, kb);
}

TEST(OasisTest, RoundTripPreservesEverything) {
  const Library lib = sampleLibrary();
  const auto bytes = OasisWriter::serialize(lib);
  EXPECT_EQ(OasisWriter::streamSize(lib),
            static_cast<long long>(bytes.size()));
  const auto parsed = OasisReader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "OAS");
  ASSERT_EQ(parsed->cells.size(), 2u);
  expectSameShapes(parsed->cells[0], lib.cells[0]);
  expectSameShapes(parsed->cells[1], lib.cells[1]);
  ASSERT_EQ(parsed->cells[0].srefs.size(), 1u);
  EXPECT_EQ(parsed->cells[0].srefs[0].origin, (geom::Point{1000, 2000}));
  ASSERT_EQ(parsed->cells[0].arefs.size(), 1u);
  EXPECT_EQ(parsed->cells[0].arefs[0].cols, 7);
  EXPECT_EQ(parsed->cells[0].arefs[0].pitchY, 140);
}

TEST(OasisTest, SmallerThanGdsOnFillData) {
  // Regular fill rects: modal variables + deltas should crush the fixed
  // 44-byte-per-rect GDS encoding.
  Library lib;
  lib.cells.emplace_back();
  Cell& cell = lib.cells.back();
  for (int r = 0; r < 50; ++r) {
    for (int c = 0; c < 50; ++c) {
      Writer::addRect(cell, 1, {c * 300, r * 300, c * 300 + 220, r * 300 + 220},
                      1);
    }
  }
  const long long gdsSize = Writer::streamSize(lib);
  const long long oasisSize = OasisWriter::streamSize(lib);
  EXPECT_LT(oasisSize * 5, gdsSize);  // > 5x smaller
}

TEST(OasisTest, FileIo) {
  const Library lib = sampleLibrary();
  const std::string path = "/tmp/ofl_oasis_test.oas";
  ASSERT_GT(OasisWriter::writeFile(lib, path), 0);
  LibraryCollector collector;
  std::string error;
  ASSERT_TRUE(OasisStreamReader::scan(path, collector, &error)) << error;
  EXPECT_EQ(collector.library().cells.size(), 2u);
  std::remove(path.c_str());
}

TEST(OasisTest, RejectsBadMagicAndTruncation) {
  const auto bytes = OasisWriter::serialize(sampleLibrary());
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(OasisReader::parse(bad).has_value());
  for (const std::size_t cut : {5ul, 15ul, bytes.size() / 2, bytes.size() - 1}) {
    const std::span<const std::uint8_t> partial(bytes.data(), cut);
    EXPECT_FALSE(OasisReader::parse(partial).has_value()) << cut;
  }
}

TEST(OasisTest, FuzzNeverCrashes) {
  Rng rng(0xA515);
  const auto original = OasisWriter::serialize(sampleLibrary());
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const int flips = static_cast<int>(rng.uniformInt(1, 6));
    for (int f = 0; f < flips; ++f) {
      const auto p = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<long long>(bytes.size()) - 1));
      bytes[p] ^= static_cast<std::uint8_t>(rng.uniformInt(1, 255));
    }
    (void)OasisReader::parse(bytes);
  }
}

}  // namespace
}  // namespace ofl::gds

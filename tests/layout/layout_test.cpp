#include "layout/layout.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "gds/stream_reader.hpp"
#include "geometry/boolean.hpp"

namespace ofl::layout {
namespace {

TEST(LayoutTest, ConstructionAndCounts) {
  Layout chip({0, 0, 500, 500}, 3);
  EXPECT_EQ(chip.numLayers(), 3);
  EXPECT_EQ(chip.wireCount(), 0u);
  chip.layer(0).wires.push_back({0, 0, 10, 10});
  chip.layer(2).wires.push_back({0, 0, 10, 10});
  chip.layer(1).fills.push_back({20, 20, 40, 40});
  EXPECT_EQ(chip.wireCount(), 2u);
  EXPECT_EQ(chip.fillCount(), 1u);
  chip.clearFills();
  EXPECT_EQ(chip.fillCount(), 0u);
  EXPECT_EQ(chip.wireCount(), 2u);
}

TEST(LayoutTest, GdsRoundTripPreservesShapes) {
  Layout chip({0, 0, 500, 500}, 2);
  chip.layer(0).wires.push_back({0, 0, 100, 20});
  chip.layer(0).fills.push_back({200, 200, 260, 260});
  chip.layer(1).wires.push_back({50, 0, 70, 300});

  const gds::Library lib = chip.toGds("RT");
  const auto bytes = gds::Writer::serialize(lib);
  const auto parsed = gds::Reader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const Layout back = Layout::fromGds(*parsed, chip.die(), 2);

  EXPECT_EQ(back.layer(0).wires.size(), 1u);
  EXPECT_EQ(back.layer(0).wires[0], geom::Rect(0, 0, 100, 20));
  EXPECT_EQ(back.layer(0).fills.size(), 1u);
  EXPECT_EQ(back.layer(0).fills[0], geom::Rect(200, 200, 260, 260));
  EXPECT_EQ(back.layer(1).wires.size(), 1u);
}

TEST(LayoutTest, FromGdsDecomposesPolygons) {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Boundary b;
  b.layer = 1;
  b.vertices = {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  lib.cells.back().boundaries.push_back(b);
  const Layout chip = Layout::fromGds(lib, {0, 0, 100, 100}, 1);
  geom::Area total = 0;
  for (const auto& r : chip.layer(0).wires) total += r.area();
  EXPECT_EQ(total, 75);
  EXPECT_GE(chip.layer(0).wires.size(), 2u);
}

TEST(LayoutTest, FromGdsIgnoresOutOfRangeLayers) {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Boundary b;
  b.layer = 9;  // beyond numLayers
  b.vertices = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  lib.cells.back().boundaries.push_back(b);
  const Layout chip = Layout::fromGds(lib, {0, 0, 100, 100}, 2);
  EXPECT_EQ(chip.wireCount(), 0u);
}

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The layouts Layout::writeGds must encode exactly as the Library route:
// no layers, shapeless layers, empty layers between full ones, a
// fills-only layer, extreme coordinates, and enough shapes to cross
// StreamWriter's 1 MiB flush threshold several times.
std::vector<Layout> writerCases() {
  std::vector<Layout> cases;
  cases.emplace_back();
  cases.emplace_back(geom::Rect{0, 0, 100, 100}, 3);

  Layout gaps({0, 0, 1000, 1000}, 5);
  gaps.layer(0).wires.push_back({0, 0, 100, 20});
  gaps.layer(0).fills.push_back({200, 200, 260, 260});
  gaps.layer(3).wires.push_back({50, 0, 70, 300});
  gaps.layer(4).fills.push_back({5, 5, 15, 15});  // fills only
  gaps.layer(4).fills.push_back({25, 5, 35, 15});
  cases.push_back(gaps);

  constexpr geom::Coord kMax = std::numeric_limits<std::int32_t>::max();
  Layout extreme({-kMax, -kMax, kMax, kMax}, 2);
  extreme.layer(0).wires.push_back({-kMax, -kMax, kMax, kMax});
  extreme.layer(0).wires.push_back({-500, -70, -3, -1});
  extreme.layer(1).fills.push_back({-kMax, 0, 0, kMax});
  cases.push_back(extreme);

  Layout big({0, 0, 100000, 100000}, 3);
  for (int i = 0; i < 40000; ++i) {
    const geom::Coord x = (i % 200) * 500;
    const geom::Coord y = (i / 200) * 500;
    big.layer(i % 3).wires.push_back({x, y, x + 100, y + 40});
    if (i % 2 == 0) {
      big.layer(i % 3).fills.push_back({x, y + 200, x + 60, y + 260});
    }
  }
  cases.push_back(big);
  return cases;
}

TEST(LayoutTest, WriteGdsMatchesLibraryRouteByteForByte) {
  const std::string path = ::testing::TempDir() + "ofl_layout_write_gds.gds";
  int k = 0;
  for (const Layout& chip : writerCases()) {
    const std::vector<std::uint8_t> want = gds::Writer::serialize(chip.toGds());
    EXPECT_EQ(chip.writeGds(path), static_cast<long long>(want.size()))
        << "case " << k;
    EXPECT_EQ(readAll(path), want) << "case " << k;
    EXPECT_EQ(chip.gdsStreamSize(), gds::Writer::streamSize(chip.toGds()))
        << "case " << k;
    ++k;
  }
  EXPECT_GT(readAll(path).size(), 2u << 20);  // the last case flushed
  std::remove(path.c_str());
}

TEST(LayoutTest, WriteGdsReportsUnwritablePath) {
  Layout chip({0, 0, 100, 100}, 1);
  chip.layer(0).wires.push_back({0, 0, 10, 10});
  EXPECT_EQ(chip.writeGds("/nonexistent/dir/ofl.gds"), -1);
}

}  // namespace
}  // namespace ofl::layout

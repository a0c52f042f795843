#include "layout/layout.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ofl::layout

// Tests for hierarchical fill output: SREF/AREF records, flattening, and
// the lossless array compaction of regular fill patterns.
#include <gtest/gtest.h>

#include <algorithm>

#include "gds/flatten.hpp"
#include "gds/gds_writer.hpp"
#include "gds/stream_reader.hpp"
#include "layout/gds_compact.hpp"

namespace ofl::gds {
namespace {

// Canonical rect list of all datatype-1 boundaries in a flat cell.
std::vector<geom::Rect> fillRects(const Cell& cell) {
  std::vector<geom::Rect> rects;
  for (const Boundary& b : cell.boundaries) {
    if (b.datatype != 1 || b.vertices.size() != 4) continue;
    geom::Coord xl = b.vertices[0].x, xh = b.vertices[0].x;
    geom::Coord yl = b.vertices[0].y, yh = b.vertices[0].y;
    for (const geom::Point& p : b.vertices) {
      xl = std::min(xl, p.x);
      xh = std::max(xh, p.x);
      yl = std::min(yl, p.y);
      yh = std::max(yh, p.y);
    }
    rects.push_back({xl, yl, xh, yh});
  }
  std::sort(rects.begin(), rects.end(), geom::RectYXLess{});
  return rects;
}

TEST(SrefArefTest, WriterReaderRoundTrip) {
  Library lib;
  lib.cells.emplace_back();
  lib.cells[0].name = "TOP";
  lib.cells[0].srefs.push_back({"CHILD", {100, 200}});
  Aref aref;
  aref.cellName = "CHILD";
  aref.origin = {0, 0};
  aref.cols = 4;
  aref.rows = 2;
  aref.pitchX = 50;
  aref.pitchY = 70;
  lib.cells[0].arefs.push_back(aref);
  lib.cells.emplace_back();
  lib.cells[1].name = "CHILD";
  Writer::addRect(lib.cells[1], 1, {0, 0, 30, 40}, 1);

  const auto bytes = Writer::serialize(lib);
  EXPECT_EQ(static_cast<long long>(bytes.size()), Writer::streamSize(lib));
  const auto parsed = Reader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->cells.size(), 2u);
  ASSERT_EQ(parsed->cells[0].srefs.size(), 1u);
  EXPECT_EQ(parsed->cells[0].srefs[0].cellName, "CHILD");
  EXPECT_EQ(parsed->cells[0].srefs[0].origin, (geom::Point{100, 200}));
  ASSERT_EQ(parsed->cells[0].arefs.size(), 1u);
  const Aref& back = parsed->cells[0].arefs[0];
  EXPECT_EQ(back.cols, 4);
  EXPECT_EQ(back.rows, 2);
  EXPECT_EQ(back.pitchX, 50);
  EXPECT_EQ(back.pitchY, 70);
}

TEST(FlattenTest, ExpandsArefGrid) {
  Library lib;
  lib.cells.emplace_back();
  lib.cells[0].name = "TOP";
  Aref aref;
  aref.cellName = "CHILD";
  aref.origin = {10, 20};
  aref.cols = 3;
  aref.rows = 2;
  aref.pitchX = 100;
  aref.pitchY = 200;
  lib.cells[0].arefs.push_back(aref);
  lib.cells.emplace_back();
  lib.cells[1].name = "CHILD";
  Writer::addRect(lib.cells[1], 2, {0, 0, 30, 40}, 1);

  const Cell flat = flattenCell(lib, "TOP");
  const auto rects = fillRects(flat);
  ASSERT_EQ(rects.size(), 6u);
  EXPECT_EQ(rects.front(), geom::Rect(10, 20, 40, 60));
  EXPECT_EQ(rects.back(), geom::Rect(210, 220, 240, 260));
}

TEST(FlattenTest, MissingChildSkipped) {
  Library lib;
  lib.cells.emplace_back();
  lib.cells[0].srefs.push_back({"GHOST", {0, 0}});
  const Cell flat = flattenCell(lib);
  EXPECT_TRUE(flat.boundaries.empty());
}

TEST(FlattenTest, CycleBounded) {
  Library lib;
  lib.cells.emplace_back();
  lib.cells[0].name = "A";
  lib.cells[0].srefs.push_back({"A", {10, 0}});  // self-reference
  Writer::addRect(lib.cells[0], 1, {0, 0, 5, 5});
  const Cell flat = flattenCell(lib, "A", /*maxDepth=*/4);
  EXPECT_EQ(flat.boundaries.size(), 5u);  // 1 + 4 expansions, then stop
}

TEST(CompactTest, RegularGridBecomesOneAref) {
  layout::Layout chip({0, 0, 2000, 2000}, 1);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 8; ++c) {
      chip.layer(0).fills.push_back(
          {c * 110, r * 130, c * 110 + 90, r * 130 + 100});
    }
  }
  const Library lib = layout::toCompactGds(chip);
  ASSERT_GE(lib.cells.size(), 2u);
  const Cell& top = lib.cells[0];
  EXPECT_TRUE(fillRects(top).empty());  // no flat fills remain
  ASSERT_EQ(top.arefs.size(), 1u);
  EXPECT_EQ(top.arefs[0].cols, 8);
  EXPECT_EQ(top.arefs[0].rows, 5);
  EXPECT_EQ(top.arefs[0].pitchX, 110);
  EXPECT_EQ(top.arefs[0].pitchY, 130);
}

TEST(CompactTest, FlattenReproducesFillsExactly) {
  layout::Layout chip({0, 0, 4000, 4000}, 2);
  // Mixture: a grid, an irregular scatter, two sizes, two layers.
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 6; ++c) {
      chip.layer(0).fills.push_back(
          {c * 100, r * 100, c * 100 + 80, r * 100 + 80});
    }
  }
  chip.layer(0).fills.push_back({3000, 3000, 3050, 3120});
  chip.layer(1).fills.push_back({100, 200, 400, 260});
  chip.layer(1).fills.push_back({100, 600, 400, 660});
  chip.layer(0).wires.push_back({2000, 2000, 2500, 2100});

  const Library compact = layout::toCompactGds(chip);
  const layout::Layout back =
      layout::Layout::fromGds(compact, chip.die(), chip.numLayers());
  for (int l = 0; l < chip.numLayers(); ++l) {
    auto expected = chip.layer(l).fills;
    auto actual = back.layer(l).fills;
    std::sort(expected.begin(), expected.end(), geom::RectYXLess{});
    std::sort(actual.begin(), actual.end(), geom::RectYXLess{});
    EXPECT_EQ(actual, expected) << "layer " << l;
  }
  EXPECT_EQ(back.layer(0).wires, chip.layer(0).wires);
}

TEST(CompactTest, IrregularFillsStayFlat) {
  layout::Layout chip({0, 0, 2000, 2000}, 1);
  chip.layer(0).fills.push_back({0, 0, 80, 80});
  chip.layer(0).fills.push_back({117, 13, 197, 93});   // random offsets
  chip.layer(0).fills.push_back({531, 410, 611, 490});
  const Library lib = layout::toCompactGds(chip);
  EXPECT_EQ(lib.cells[0].arefs.size(), 0u);
  EXPECT_EQ(fillRects(lib.cells[0]).size(), 3u);
}

TEST(CompactTest, ShrinksStreamOnRegularFill) {
  layout::Layout chip({0, 0, 20000, 20000}, 1);
  for (int r = 0; r < 40; ++r) {
    for (int c = 0; c < 40; ++c) {
      chip.layer(0).fills.push_back(
          {c * 300, r * 300, c * 300 + 200, r * 300 + 200});
    }
  }
  const long long flat = Writer::streamSize(chip.toGds());
  const long long compact = Writer::streamSize(layout::toCompactGds(chip));
  EXPECT_LT(compact * 10, flat);  // >10x smaller on a pure array
}

}  // namespace
}  // namespace ofl::gds

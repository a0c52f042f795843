// service::loadFlatLayout reads layouts in one streamed pass, with no
// Library. These tests pin it to the Library route it replaced,
// Layout::fromGds over the parsed file with the die taken as the bbox of
// every structure's boundaries, on random hierarchical GDSII and OASIS
// libraries.
#include "service/layout_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_reader.hpp"
#include "geometry/polygon.hpp"

namespace ofl::service {
namespace {

// Rects in both loop orientations, L-shaped polygons (either winding),
// zero-area loops, layers 0 and below (GDSII only: OASIS RECT records
// cannot carry a negative layer), datatypes 0 and 1, and SREF/AREF chains
// that only point at later cells, so there are no cycles and no
// reference back to the top cell. Some references name no cell.
gds::Library randomHierarchy(Rng& rng, bool oasis) {
  gds::Library lib;
  const int cells = static_cast<int>(rng.uniformInt(1, 4));
  for (int c = 0; c < cells; ++c) {
    lib.cells.emplace_back();
    gds::Cell& cell = lib.cells.back();
    cell.name = 'C' + std::to_string(c);
    const int shapes = static_cast<int>(rng.uniformInt(0, 12));
    for (int s = 0; s < shapes; ++s) {
      gds::Boundary b;
      b.layer = static_cast<std::int16_t>(rng.uniformInt(oasis ? 0 : -2, 4));
      b.datatype = static_cast<std::int16_t>(rng.uniformInt(0, 1));
      const geom::Coord x = rng.uniformInt(-3000, 3000);
      const geom::Coord y = rng.uniformInt(-3000, 3000);
      const geom::Coord w = rng.uniformInt(2, 400);
      const geom::Coord h = rng.uniformInt(2, 400);
      switch (rng.uniformInt(0, 3)) {
        case 0:
          b.vertices = {{x, y}, {x + w, y}, {x + w, y + h}, {x, y + h}};
          break;
        case 1:
          b.vertices = {{x, y}, {x, y + h}, {x + w, y + h}, {x + w, y}};
          break;
        case 2: {
          const geom::Coord w2 = rng.uniformInt(1, w - 1);
          const geom::Coord h2 = rng.uniformInt(1, h - 1);
          b.vertices = {{x, y},           {x + w, y},  {x + w, y + h2},
                        {x + w2, y + h2}, {x + w2, y + h}, {x, y + h}};
          if (rng.bernoulli(0.5)) {
            std::reverse(b.vertices.begin(), b.vertices.end());
          }
          break;
        }
        default:
          b.vertices = {{x, y}, {x, y}, {x, y + h}, {x, y + h}};
          break;
      }
      cell.boundaries.push_back(std::move(b));
    }
    for (int target = c + 1; target <= cells; ++target) {
      const std::string name =
          target == cells ? "MISSING" : 'C' + std::to_string(target);
      if (rng.bernoulli(0.5)) {
        cell.srefs.push_back(
            {name, {rng.uniformInt(-2000, 2000), rng.uniformInt(-2000, 2000)}});
      }
      if (rng.bernoulli(0.3)) {
        cell.arefs.push_back({name,
                              {rng.uniformInt(-2000, 2000), 0},
                              static_cast<int>(rng.uniformInt(1, 3)),
                              static_cast<int>(rng.uniformInt(1, 3)),
                              rng.uniformInt(1, 500),
                              rng.uniformInt(1, 500)});
      }
    }
  }
  return lib;
}

void writeBytes(const std::vector<std::uint8_t>& bytes,
                const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(LayoutIoPropertyTest, MatchesLibraryRouteOnRandomHierarchies) {
  const std::string path = ::testing::TempDir() + "ofl_layout_io_prop";
  int loaded = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    const bool oasis = seed % 2 == 0;
    const gds::Library source = randomHierarchy(rng, oasis);
    const std::vector<std::uint8_t> bytes =
        oasis ? gds::OasisWriter::serialize(source)
              : gds::Writer::serialize(source);
    writeBytes(bytes, path);
    const auto lib = oasis ? gds::OasisReader::parse(bytes)
                           : gds::Reader::parse(bytes);
    ASSERT_TRUE(lib.has_value()) << "seed " << seed;

    int maxLayer = 0;
    geom::Rect bbox;
    for (const gds::Cell& cell : lib->cells) {
      for (const gds::Boundary& b : cell.boundaries) {
        maxLayer = std::max<int>(maxLayer, b.layer);
        bbox = bbox.bboxUnion(geom::Polygon(b.vertices).bbox());
      }
    }

    layout::Layout got;
    std::string error;
    if (bbox.empty()) {
      EXPECT_FALSE(loadFlatLayout(path, std::nullopt, &got, &error))
          << "seed " << seed;
      EXPECT_EQ(error, "layout is empty and no die given") << "seed " << seed;
      continue;
    }
    ASSERT_TRUE(loadFlatLayout(path, std::nullopt, &got, &error))
        << "seed " << seed << ": " << error;
    const layout::Layout want =
        layout::Layout::fromGds(*lib, bbox, std::max(maxLayer, 1));
    ASSERT_EQ(got.die(), want.die()) << "seed " << seed;
    ASSERT_EQ(got.numLayers(), want.numLayers()) << "seed " << seed;
    for (int l = 0; l < want.numLayers(); ++l) {
      EXPECT_EQ(got.layer(l).name, want.layer(l).name) << "seed " << seed;
      EXPECT_EQ(got.layer(l).wires, want.layer(l).wires)
          << "seed " << seed << " layer " << l;
      EXPECT_EQ(got.layer(l).fills, want.layer(l).fills)
          << "seed " << seed << " layer " << l;
    }

    // A given die replaces the bbox and clips nothing.
    const geom::Rect die{0, 0, 10, 10};
    layout::Layout withDie;
    ASSERT_TRUE(loadFlatLayout(path, die, &withDie, &error)) << error;
    EXPECT_EQ(withDie.die(), die);
    EXPECT_EQ(withDie.wireCount(), want.wireCount()) << "seed " << seed;
    EXPECT_EQ(withDie.fillCount(), want.fillCount()) << "seed " << seed;
    ++loaded;
  }
  EXPECT_GT(loaded, 80);  // most seeds exercise the comparison
  std::remove(path.c_str());
}

// writeLayout in every mode reads back through loadFlatLayout as the same
// shapes: flat GDSII (Layout::writeGds), compact GDSII and both OASIS forms
// (through a Library). Compaction may reorder fills, so they are compared
// as sorted lists.
TEST(LayoutIoTest, WriteLayoutRoundTripsInEveryMode) {
  layout::Layout chip({0, 0, 4000, 4000}, 3);
  chip.layer(0).wires.push_back({0, 0, 4000, 100});
  chip.layer(2).wires.push_back({100, 300, 400, 3900});
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 8; ++j) {  // a regular grid compaction arrays
      const geom::Coord x = 1000 + 200 * i;
      const geom::Coord y = 500 + 300 * j;
      chip.layer(0).fills.push_back({x, y, x + 120, y + 150});
    }
  }
  chip.layer(2).fills.push_back({600, 700, 650, 900});
  const auto sorted = [](std::vector<geom::Rect> rects) {
    std::sort(rects.begin(), rects.end(), geom::RectYXLess{});
    return rects;
  };
  const std::string path = ::testing::TempDir() + "ofl_layout_io_modes";
  for (const OutputFormat format : {OutputFormat::kGds, OutputFormat::kOasis}) {
    for (const bool compact : {false, true}) {
      const std::string mode = std::string(format == OutputFormat::kGds
                                               ? "gds"
                                               : "oasis") +
                               (compact ? " compact" : " flat");
      ASSERT_GT(writeLayout(chip, path, format, compact), 0) << mode;
      layout::Layout back;
      std::string error;
      ASSERT_TRUE(loadFlatLayout(path, chip.die(), &back, &error))
          << mode << ": " << error;
      ASSERT_EQ(back.numLayers(), chip.numLayers()) << mode;
      for (int l = 0; l < chip.numLayers(); ++l) {
        EXPECT_EQ(back.layer(l).wires, chip.layer(l).wires)
            << mode << " layer " << l;
        EXPECT_EQ(sorted(back.layer(l).fills), sorted(chip.layer(l).fills))
            << mode << " layer " << l;
      }
    }
  }
  EXPECT_EQ(writeLayout(chip, "/nonexistent/dir/out.gds", OutputFormat::kGds,
                        false),
            -1);
  std::remove(path.c_str());
}

TEST(LayoutIoTest, UnreadableFileKeepsItsMessage) {
  layout::Layout chip;
  std::string error;
  EXPECT_FALSE(loadFlatLayout("/nonexistent/in.gds", std::nullopt, &chip,
                              &error));
  EXPECT_EQ(error, "cannot read layout file: /nonexistent/in.gds");
  EXPECT_FALSE(loadFlatLayout("", std::nullopt, &chip, &error));
  EXPECT_EQ(error, "missing input file path");
}

// The two inputs ingest rejects on purpose, in the in-memory loader as in
// the streamed engine (both read through gds::RectIngest).
TEST(LayoutIoTest, RejectsNonManhattanBoundaryNamingTheLayer) {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Writer::addRect(lib.cells.back(), 1, {0, 0, 100, 100});
  gds::Boundary slanted;
  slanted.layer = 3;
  slanted.vertices = {{0, 0}, {50, 0}, {60, 40}, {0, 40}};
  lib.cells.back().boundaries.push_back(slanted);
  const std::string path = ::testing::TempDir() + "ofl_layout_io_slant.gds";
  writeBytes(gds::Writer::serialize(lib), path);
  layout::Layout chip;
  std::string error;
  EXPECT_FALSE(loadFlatLayout(path, std::nullopt, &chip, &error));
  EXPECT_EQ(error,
            "non-Manhattan BOUNDARY on layer 3: only horizontal and vertical "
            "edges are supported");
  std::remove(path.c_str());
}

TEST(LayoutIoTest, RejectsReferenceToTopCell) {
  gds::Library lib;
  lib.cells.emplace_back();
  lib.cells.back().name = "TOP";
  gds::Writer::addRect(lib.cells.back(), 1, {0, 0, 100, 100});
  lib.cells.back().srefs.push_back({"TOP", {500, 0}});
  const std::string path = ::testing::TempDir() + "ofl_layout_io_self.gds";
  writeBytes(gds::Writer::serialize(lib), path);
  layout::Layout chip;
  std::string error;
  EXPECT_FALSE(loadFlatLayout(path, std::nullopt, &chip, &error));
  EXPECT_EQ(error,
            "reference to top cell 'TOP' cannot be expanded while streaming");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ofl::service

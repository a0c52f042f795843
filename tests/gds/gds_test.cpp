#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_records.hpp"
#include "gds/gds_writer.hpp"
#include "gds/record_builder.hpp"
#include "gds/stream_reader.hpp"

namespace ofl::gds {
namespace {

Library sampleLibrary() {
  Library lib;
  lib.name = "TESTLIB";
  lib.cells.emplace_back();
  Cell& cell = lib.cells.back();
  cell.name = "TOP";
  Writer::addRect(cell, 1, {0, 0, 100, 50});
  Writer::addRect(cell, 2, {-30, -40, 10, 20}, /*datatype=*/1);
  Boundary poly;
  poly.layer = 3;
  poly.vertices = {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  cell.boundaries.push_back(poly);
  return lib;
}

TEST(GdsRecordsTest, Real8RoundTrip) {
  for (const double v : {0.0, 1.0, -1.0, 1e-3, 1e-9, 0.25, 1e6, -2.5e-7}) {
    const double back = decodeReal8(encodeReal8(v));
    EXPECT_NEAR(back, v, std::abs(v) * 1e-12 + 1e-300) << "value " << v;
  }
}

TEST(GdsRecordsTest, BigEndianHelpers) {
  std::vector<std::uint8_t> buf;
  putU16(buf, 0x1234);
  putI32(buf, -2);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(getU16(buf.data()), 0x1234);
  EXPECT_EQ(getI32(buf.data() + 2), -2);
}

TEST(GdsWriterTest, StreamSizeMatchesSerializedBytes) {
  const Library lib = sampleLibrary();
  const auto bytes = Writer::serialize(lib);
  EXPECT_EQ(static_cast<long long>(bytes.size()), Writer::streamSize(lib));

  // A zero-vertex boundary (what the reader makes of an empty XY record)
  // has no closing vertex on disk.
  Library empty;
  empty.cells.emplace_back();
  empty.cells.back().boundaries.emplace_back();
  const auto emptyBytes = Writer::serialize(empty);
  EXPECT_EQ(emptyBytes.size(), 134u);
  EXPECT_EQ(static_cast<long long>(emptyBytes.size()),
            Writer::streamSize(empty));
}

// The fixed-size rect encoder must emit exactly the general boundary
// encoder's bytes for the same 4-vertex loop, across the int32 range.
TEST(GdsWriterTest, RectEncoderMatchesBoundaryEncoder) {
  constexpr geom::Coord kMax = 2147483647;
  Rng rng(0xAC7);
  std::vector<geom::Rect> rects{{-kMax, -kMax, kMax, kMax},
                                {kMax, kMax, kMax, kMax},
                                {-kMax, 0, 0, kMax},
                                {0, 0, 0, 0}};
  for (int i = 0; i < 500; ++i) {
    const geom::Coord x = rng.uniformInt(-kMax, kMax - 1);
    const geom::Coord y = rng.uniformInt(-kMax, kMax - 1);
    rects.push_back({x, y, rng.uniformInt(x, kMax), rng.uniformInt(y, kMax)});
  }
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const geom::Rect& r = rects[i];
    const auto layer = static_cast<std::int16_t>(rng.uniformInt(-32768, 32767));
    const auto datatype =
        static_cast<std::int16_t>(rng.uniformInt(-32768, 32767));
    Cell cell;
    Writer::addRect(cell, layer, r, datatype);
    std::vector<std::uint8_t> expected;
    record::appendBoundary(expected, cell.boundaries.front());
    std::vector<std::uint8_t> actual{0xAB};  // encoder appends, never clears
    record::appendRect(actual, layer, r, datatype);
    ASSERT_EQ(actual.size(), 1 + record::kRectRecordBytes) << "rect " << i;
    EXPECT_EQ(std::vector<std::uint8_t>(actual.begin() + 1, actual.end()),
              expected)
        << "rect " << i;
  }
}

// Pinned GDSII bytes for a small library with non-rect polygons, an
// empty BOUNDARY and a reference, recorded from the encoder before it
// wrote boundaries in place. serialize() and writeFile() share that
// encoder, so only a fixed expectation like this one pins their bytes.
TEST(GdsWriterTest, GoldenBytesForPolygonLibrary) {
  Library lib;
  lib.name = "GOLD";
  lib.cells.emplace_back();
  Cell& top = lib.cells.back();
  top.name = "TOP";
  Writer::addRect(top, 1, {-20, -10, 30, 40});
  Boundary ell;
  ell.layer = 2;
  ell.datatype = 1;
  ell.vertices = {{0, 0},   {70000, 0}, {70000, 5},
                  {5, 5},   {5, -300},  {0, -300}};
  top.boundaries.push_back(ell);
  Boundary bare;
  bare.layer = 3;
  top.boundaries.push_back(bare);
  top.srefs.push_back({"SUB", {100, -200}});
  lib.cells.emplace_back();
  lib.cells.back().name = "SUB";
  Boundary tee;
  tee.layer = 1;
  tee.vertices = {{0, 0}, {9, 0}, {9, 2}, {6, 2},
                  {6, 7}, {3, 7}, {3, 2}, {0, 2}};
  lib.cells.back().boundaries.push_back(tee);

  const std::string hex =
      "000600020258001c010200000000000000000000000000000000000000000000"
      "000000080206474f4c44001403053e4189374bc6a7f03944b82fa09b5a54001c"
      "050200000000000000000000000000000000000000000000000000080606544f"
      "50000004080000060d02000100060e020000002c1003ffffffecfffffff60000"
      "001efffffff60000001e00000028ffffffec00000028ffffffecfffffff60004"
      "11000004080000060d02000200060e020001003c100300000000000000000001"
      "1170000000000001117000000005000000050000000500000005fffffed40000"
      "0000fffffed40000000000000000000411000004080000060d02000300060e02"
      "0000000410030004110000040a000008120653554200000c100300000064ffff"
      "ff380004110000040700001c0502000000000000000000000000000000000000"
      "00000000000000080606535542000004080000060d02000100060e020000004c"
      "1003000000000000000000000009000000000000000900000002000000060000"
      "0002000000060000000700000003000000070000000300000002000000000000"
      "00020000000000000000000411000004070000040400";
  std::vector<std::uint8_t> golden;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    golden.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  ASSERT_EQ(golden.size(), 438u);
  EXPECT_EQ(Writer::serialize(lib), golden);
  EXPECT_EQ(Writer::streamSize(lib), 438);

  const std::string path = "/tmp/ofl_gds_golden.gds";
  ASSERT_EQ(Writer::writeFile(lib, path), 438);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> written{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(written, golden);
  std::remove(path.c_str());
}

TEST(GdsWriterTest, StreamSizeEmptyLibrary) {
  Library lib;
  lib.cells.clear();
  const auto bytes = Writer::serialize(lib);
  EXPECT_EQ(static_cast<long long>(bytes.size()), Writer::streamSize(lib));
}

TEST(GdsWriterTest, DeterministicOutput) {
  const Library lib = sampleLibrary();
  EXPECT_EQ(Writer::serialize(lib), Writer::serialize(lib));
}

TEST(GdsRoundTripTest, ParseRecoverStructure) {
  const Library lib = sampleLibrary();
  const auto bytes = Writer::serialize(lib);
  const auto parsed = Reader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, "TESTLIB");
  ASSERT_EQ(parsed->cells.size(), 1u);
  const Cell& cell = parsed->cells[0];
  EXPECT_EQ(cell.name, "TOP");
  ASSERT_EQ(cell.boundaries.size(), 3u);
  EXPECT_EQ(cell.boundaries[0].layer, 1);
  EXPECT_EQ(cell.boundaries[0].datatype, 0);
  EXPECT_EQ(cell.boundaries[1].datatype, 1);
  EXPECT_EQ(cell.boundaries[1].vertices[0], (geom::Point{-30, -40}));
  EXPECT_EQ(cell.boundaries[2].vertices.size(), 6u);
  EXPECT_NEAR(parsed->userUnitsPerDbu, lib.userUnitsPerDbu, 1e-12);
  EXPECT_NEAR(parsed->metersPerDbu, lib.metersPerDbu, 1e-18);
}

TEST(GdsRoundTripTest, FileIo) {
  const Library lib = sampleLibrary();
  const std::string path = "/tmp/ofl_gds_test.gds";
  const long long written = Writer::writeFile(lib, path);
  EXPECT_GT(written, 0);
  LibraryCollector collector;
  std::string error;
  ASSERT_TRUE(StreamReader::scan(path, collector, &error)) << error;
  EXPECT_EQ(collector.library().cells[0].boundaries.size(), 3u);
  std::remove(path.c_str());
  EXPECT_EQ(Writer::writeFile(lib, "/nonexistent/dir/ofl.gds"), -1);
}

TEST(GdsReaderTest, RejectsTruncatedStream) {
  const auto bytes = Writer::serialize(sampleLibrary());
  for (const std::size_t cut : {1ul, 10ul, bytes.size() / 2, bytes.size() - 2}) {
    const std::span<const std::uint8_t> partial(bytes.data(), cut);
    EXPECT_FALSE(Reader::parse(partial).has_value()) << "cut " << cut;
  }
}

TEST(GdsReaderTest, RejectsGarbage) {
  const std::vector<std::uint8_t> junk{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  EXPECT_FALSE(Reader::parse(junk).has_value());
  EXPECT_FALSE(Reader::parse({}).has_value());
}

TEST(GdsReaderTest, MissingFileFails) {
  LibraryCollector collector;
  std::string error;
  EXPECT_FALSE(StreamReader::scan("/nonexistent/path.gds", collector, &error));
  EXPECT_EQ(error, "cannot open file");
}

}  // namespace
}  // namespace ofl::gds

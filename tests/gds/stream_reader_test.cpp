// Streaming reader/writer coverage: the chunked RecordStream must be
// insensitive to where chunk boundaries fall, reject truncated files and
// oversized records with clear errors, and the file scan must reconstruct
// exactly the Library that Reader::parse builds from the same bytes —
// pinned here over 50 random libraries.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_writer.hpp"
#include "gds/record_builder.hpp"
#include "gds/stream_reader.hpp"
#include "gds/stream_writer.hpp"
#include "verify/layout_gen.hpp"

namespace ofl::gds {
namespace {

Library sampleStreamLibrary() {
  Library lib;
  lib.name = "STREAMLIB";
  lib.cells.emplace_back();
  Cell& cell = lib.cells.back();
  cell.name = "TOP";
  Writer::addRect(cell, 1, {0, 0, 100, 50});
  Writer::addRect(cell, 2, {-30, -40, 10, 20}, /*datatype=*/1);
  Boundary poly;
  poly.layer = 3;
  poly.vertices = {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  cell.boundaries.push_back(poly);
  cell.srefs.push_back({"SUB", {100, 200}});
  cell.arefs.push_back({"SUB", {0, 0}, 3, 2, 40, 50});
  lib.cells.emplace_back();
  lib.cells.back().name = "SUB";
  Writer::addRect(lib.cells.back(), 1, {1, 2, 3, 4});
  return lib;
}

std::string writeTemp(const std::vector<std::uint8_t>& bytes,
                      const std::string& name) {
  const std::string path = "/tmp/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StreamReaderTest, ChunkBoundarySplitsAreInvisible) {
  const Library lib = sampleStreamLibrary();
  const auto bytes = Writer::serialize(lib);
  const std::string path = writeTemp(bytes, "ofl_stream_chunks.gds");
  // Chunk sizes deliberately smaller than single records (a BOUNDARY with
  // XY data is tens of bytes), so every record straddles chunk refills.
  // At 1 byte the buffer never holds more than the last request, so
  // ensure()'s inline fast path sees only exact fits and every other
  // request goes through refill.
  for (const std::size_t chunk :
       {1ul, 16ul, 17ul, 64ul, 1024ul, bytes.size()}) {
    StreamReader::Options o;
    o.chunkBytes = chunk;
    LibraryCollector collector;
    std::string error;
    ASSERT_TRUE(StreamReader::scan(path, collector, &error, o))
        << "chunk " << chunk << ": " << error;
    EXPECT_EQ(Writer::serialize(collector.library()), bytes)
        << "chunk " << chunk;
  }
  std::remove(path.c_str());
}

TEST(StreamReaderTest, TruncatedFileFailsWithError) {
  const auto bytes = Writer::serialize(sampleStreamLibrary());
  for (const std::size_t cut :
       {1ul, 10ul, bytes.size() / 2, bytes.size() - 2}) {
    const std::vector<std::uint8_t> partial(bytes.begin(),
                                            bytes.begin() + static_cast<long>(cut));
    const std::string path = writeTemp(partial, "ofl_stream_trunc.gds");
    LibraryCollector collector;
    std::string error;
    EXPECT_FALSE(StreamReader::scan(path, collector, &error)) << "cut " << cut;
    EXPECT_FALSE(error.empty()) << "cut " << cut;
    std::remove(path.c_str());
  }
}

TEST(StreamReaderTest, MissingFileFailsWithError) {
  LibraryCollector collector;
  std::string error;
  EXPECT_FALSE(
      StreamReader::scan("/nonexistent/ofl_stream.gds", collector, &error));
  EXPECT_FALSE(error.empty());
}

TEST(StreamReaderTest, OversizedRecordRejectedWhenLimitLowered) {
  const Library lib = sampleStreamLibrary();
  const std::string path =
      writeTemp(Writer::serialize(lib), "ofl_stream_bigrec.gds");
  StreamReader::Options o;
  o.maxRecordBytes = 8;  // the 6-point polygon's XY record exceeds this
  LibraryCollector collector;
  std::string error;
  EXPECT_FALSE(StreamReader::scan(path, collector, &error, o));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// The record machine reuses one Boundary across elements. A BOUNDARY
// with no LAYER, DATATYPE or XY after a complete one must still read as
// layer 0, datatype 0 and no vertices, exactly as Reader::parse builds it.
TEST(StreamReaderTest, BareBoundaryAfterCompleteOneReadsAsDefaults) {
  std::vector<std::uint8_t> bytes;
  record::appendFilePrologue(bytes, "BARE", 1e-3, 1e-9);
  record::appendCellBegin(bytes, "TOP");
  record::appendRect(bytes, 7, {-5, -6, 40, 30}, /*datatype=*/3);
  record::append(bytes, RecordTag::kBoundary);
  record::append(bytes, RecordTag::kEndEl);
  record::appendRect(bytes, 2, {1, 2, 3, 4}, /*datatype=*/1);
  record::append(bytes, RecordTag::kBoundary);  // bare, ended by ENDSTR
  record::appendCellEnd(bytes);
  record::appendFileEpilogue(bytes);
  const std::string path = writeTemp(bytes, "ofl_stream_bare.gds");

  const auto parsed = Reader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  LibraryCollector collector;
  std::string error;
  ASSERT_TRUE(StreamReader::scan(path, collector, &error)) << error;
  std::remove(path.c_str());

  for (const Library* lib :
       std::vector<const Library*>{&*parsed, &collector.library()}) {
    ASSERT_EQ(lib->cells.size(), 1u);
    const auto& boundaries = lib->cells[0].boundaries;
    ASSERT_EQ(boundaries.size(), 4u);
    EXPECT_EQ(boundaries[0].layer, 7);
    EXPECT_EQ(boundaries[0].datatype, 3);
    EXPECT_EQ(boundaries[0].vertices.size(), 4u);
    for (const std::size_t bare : {1u, 3u}) {
      EXPECT_EQ(boundaries[bare].layer, 0) << "boundary " << bare;
      EXPECT_EQ(boundaries[bare].datatype, 0) << "boundary " << bare;
      EXPECT_TRUE(boundaries[bare].vertices.empty()) << "boundary " << bare;
    }
  }
  EXPECT_EQ(Writer::serialize(collector.library()),
            Writer::serialize(*parsed));
}

// Property: for arbitrary libraries the chunked file scan and the
// in-memory parse (the same record machine over a span) agree
// byte-for-byte.
TEST(StreamReaderPropertyTest, MatchesReaderOnRandomLibraries) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const Library lib = testing::LayoutGen::randomLibrary(rng);
    const auto bytes = Writer::serialize(lib);
    const std::string path = writeTemp(bytes, "ofl_stream_prop.gds");

    const auto parsed = Reader::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;

    StreamReader::Options o;
    o.chunkBytes = 512 + seed * 37;  // vary where refills land
    LibraryCollector collector;
    std::string error;
    ASSERT_TRUE(StreamReader::scan(path, collector, &error, o))
        << "seed " << seed << ": " << error;

    EXPECT_EQ(Writer::serialize(*parsed), bytes) << "seed " << seed;
    EXPECT_EQ(Writer::serialize(collector.library()), bytes)
        << "seed " << seed;
    std::remove(path.c_str());
  }
}

// The append-only StreamWriter must emit exactly the bytes Writer::serialize
// produces — the sharded engine's byte-identity guarantee rests on this.
TEST(StreamWriterTest, ByteIdenticalToBatchSerialize) {
  const Library lib = sampleStreamLibrary();
  Library batch;  // StreamWriter defaults: name OPENFILL, 1e-3 / 1e-9 units
  batch.cells = lib.cells;
  const std::string path = "/tmp/ofl_stream_writer.gds";

  StreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  for (const Cell& cell : batch.cells) {
    writer.beginCell(cell.name);
    for (const Boundary& b : cell.boundaries) writer.addBoundary(b);
    for (const Sref& s : cell.srefs) writer.addSref(s);
    for (const Aref& a : cell.arefs) writer.addAref(a);
    writer.endCell();
  }
  const long long bytes = writer.finish();
  ASSERT_GT(bytes, 0);

  const auto expected = Writer::serialize(batch);
  EXPECT_EQ(static_cast<long long>(expected.size()), bytes);
  EXPECT_EQ(readAll(path), expected);
  std::remove(path.c_str());
}

// Opening an existing output does not truncate it to zero, so rewriting
// it must still leave exactly the new stream: nothing of a longer old
// file's tail, whatever the old length. Non-regular targets still work.
TEST(StreamWriterTest, RewritingAnExistingFileLeavesOnlyTheNewBytes) {
  Library lib;
  lib.cells.emplace_back();
  lib.cells.back().name = "TOP";
  Writer::addRect(lib.cells.back(), 1, {0, 0, 100, 50});
  const auto expected = Writer::serialize(lib);
  auto write = [&lib](const std::string& path) {
    StreamWriter writer(path);
    if (!writer.ok()) return -1LL;
    writer.beginCell("TOP");
    for (const Boundary& b : lib.cells.back().boundaries) {
      writer.addBoundary(b);
    }
    writer.endCell();
    return writer.finish();
  };
  for (const std::size_t oldBytes :
       {std::size_t{0}, std::size_t{1}, expected.size(),
        expected.size() + 1, std::size_t{3} << 20}) {
    const std::string path =
        writeTemp(std::vector<std::uint8_t>(oldBytes, 0xab),
                  "ofl_stream_rewrite.gds");
    EXPECT_EQ(write(path), static_cast<long long>(expected.size()))
        << oldBytes;
    EXPECT_EQ(readAll(path), expected) << oldBytes;
    std::remove(path.c_str());
  }
  EXPECT_EQ(write("/dev/null"), static_cast<long long>(expected.size()));
}

}  // namespace
}  // namespace ofl::gds

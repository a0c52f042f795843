#include "gds/gds_writer.hpp"

#include "gds/gds_records.hpp"
#include "gds/record_builder.hpp"
#include "gds/stream_writer.hpp"

namespace ofl::gds {

namespace record {

void append(std::vector<std::uint8_t>& out, RecordTag tag,
            const std::vector<std::uint8_t>& payload) {
  putU16(out, static_cast<std::uint16_t>(4 + payload.size()));
  putU16(out, static_cast<std::uint16_t>(tag));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> asciiPayload(const std::string& s) {
  std::vector<std::uint8_t> p(s.begin(), s.end());
  if (p.size() % 2 != 0) p.push_back(0);  // GDS pads strings to even length
  return p;
}

std::vector<std::uint8_t> timestampPayload() {
  std::vector<std::uint8_t> p;
  for (int i = 0; i < 12; ++i) putU16(p, 0);
  return p;
}

void appendFilePrologue(std::vector<std::uint8_t>& out,
                        const std::string& libName, double userUnitsPerDbu,
                        double metersPerDbu) {
  {
    std::vector<std::uint8_t> p;
    putU16(p, 600);  // stream version
    append(out, RecordTag::kHeader, p);
  }
  append(out, RecordTag::kBgnLib, timestampPayload());
  append(out, RecordTag::kLibName, asciiPayload(libName));
  {
    std::vector<std::uint8_t> p;
    const std::uint64_t uu = encodeReal8(userUnitsPerDbu);
    const std::uint64_t mu = encodeReal8(metersPerDbu);
    for (int i = 7; i >= 0; --i)
      p.push_back(static_cast<std::uint8_t>((uu >> (8 * i)) & 0xFF));
    for (int i = 7; i >= 0; --i)
      p.push_back(static_cast<std::uint8_t>((mu >> (8 * i)) & 0xFF));
    append(out, RecordTag::kUnits, p);
  }
}

void appendCellBegin(std::vector<std::uint8_t>& out, const std::string& name) {
  append(out, RecordTag::kBgnStr, timestampPayload());
  append(out, RecordTag::kStrName, asciiPayload(name));
}

void appendSref(std::vector<std::uint8_t>& out, const Sref& s) {
  append(out, RecordTag::kSref);
  append(out, RecordTag::kSname, asciiPayload(s.cellName));
  std::vector<std::uint8_t> p;
  putI32(p, static_cast<std::int32_t>(s.origin.x));
  putI32(p, static_cast<std::int32_t>(s.origin.y));
  append(out, RecordTag::kXy, p);
  append(out, RecordTag::kEndEl);
}

void appendAref(std::vector<std::uint8_t>& out, const Aref& a) {
  append(out, RecordTag::kAref);
  append(out, RecordTag::kSname, asciiPayload(a.cellName));
  {
    std::vector<std::uint8_t> p;
    putU16(p, static_cast<std::uint16_t>(a.cols));
    putU16(p, static_cast<std::uint16_t>(a.rows));
    append(out, RecordTag::kColRow, p);
  }
  // AREF XY: origin, origin displaced cols*pitchX in x, origin displaced
  // rows*pitchY in y (GDSII stores the far lattice corners).
  std::vector<std::uint8_t> p;
  putI32(p, static_cast<std::int32_t>(a.origin.x));
  putI32(p, static_cast<std::int32_t>(a.origin.y));
  putI32(p, static_cast<std::int32_t>(a.origin.x + a.cols * a.pitchX));
  putI32(p, static_cast<std::int32_t>(a.origin.y));
  putI32(p, static_cast<std::int32_t>(a.origin.x));
  putI32(p, static_cast<std::int32_t>(a.origin.y + a.rows * a.pitchY));
  append(out, RecordTag::kXy, p);
  append(out, RecordTag::kEndEl);
}

namespace {

// Big-endian field writers over raw output bytes; each returns the byte
// after the field.
std::uint8_t* putU16At(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
  return p + 2;
}

std::uint8_t* putHeaderAt(std::uint8_t* p, std::size_t length,
                          RecordTag tag) {
  return putU16At(putU16At(p, static_cast<std::uint16_t>(length)),
                  static_cast<std::uint16_t>(tag));
}

std::uint8_t* putPointAt(std::uint8_t* p, const geom::Point& pt) {
  const std::uint64_t xy =
      (std::uint64_t{static_cast<std::uint32_t>(static_cast<std::int32_t>(pt.x))}
       << 32) |
      static_cast<std::uint32_t>(static_cast<std::int32_t>(pt.y));
  for (int shift = 56; shift >= 0; shift -= 8) {
    *p++ = static_cast<std::uint8_t>(xy >> shift);
  }
  return p;
}

// One BOUNDARY element for an n-vertex loop, written in place with one
// resize: BOUNDARY (4), LAYER (6), DATATYPE (6), XY (4 + 8 per vertex,
// plus the repeated first vertex GDS uses to close a non-empty loop),
// ENDEL (4). The XY length field wraps like a 16-bit record length.
inline void appendLoop(std::vector<std::uint8_t>& out, std::int16_t layer,
                       std::int16_t datatype, const geom::Point* v,
                       std::size_t n) {
  const std::size_t xyBytes = 8 * (n > 0 ? n + 1 : 0);
  const std::size_t at = out.size();
  out.resize(at + 4 + 6 + 6 + (4 + xyBytes) + 4);
  std::uint8_t* p = out.data() + at;
  p = putHeaderAt(p, 4, RecordTag::kBoundary);
  p = putU16At(putHeaderAt(p, 6, RecordTag::kLayer),
               static_cast<std::uint16_t>(layer));
  p = putU16At(putHeaderAt(p, 6, RecordTag::kDataType),
               static_cast<std::uint16_t>(datatype));
  p = putHeaderAt(p, 4 + xyBytes, RecordTag::kXy);
  for (std::size_t i = 0; i < n; ++i) p = putPointAt(p, v[i]);
  if (n > 0) p = putPointAt(p, v[0]);
  putHeaderAt(p, 4, RecordTag::kEndEl);
}

}  // namespace

void appendBoundary(std::vector<std::uint8_t>& out, const Boundary& b) {
  appendLoop(out, b.layer, b.datatype, b.vertices.data(), b.vertices.size());
}

void appendRect(std::vector<std::uint8_t>& out, std::int16_t layer,
                const geom::Rect& r, std::int16_t datatype) {
  // Writer::addRect's vertex order.
  const geom::Point loop[4] = {
      {r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}};
  appendLoop(out, layer, datatype, loop, 4);
}

void appendCellEnd(std::vector<std::uint8_t>& out) {
  append(out, RecordTag::kEndStr);
}

void appendFileEpilogue(std::vector<std::uint8_t>& out) {
  append(out, RecordTag::kEndLib);
}

}  // namespace record

std::vector<std::uint8_t> Writer::serialize(const Library& lib) {
  std::vector<std::uint8_t> out;
  record::appendFilePrologue(out, lib.name, lib.userUnitsPerDbu,
                             lib.metersPerDbu);
  for (const Cell& cell : lib.cells) {
    record::appendCellBegin(out, cell.name);
    for (const Boundary& b : cell.boundaries) record::appendBoundary(out, b);
    for (const Sref& s : cell.srefs) record::appendSref(out, s);
    for (const Aref& a : cell.arefs) record::appendAref(out, a);
    record::appendCellEnd(out);
  }
  record::appendFileEpilogue(out);
  return out;
}

long long Writer::writeFile(const Library& lib, const std::string& path) {
  // Streamed through the shared record encoders, so the bytes equal
  // serialize(lib) while only one flush buffer is held in memory.
  StreamWriter::Options options;
  options.libName = lib.name;
  options.userUnitsPerDbu = lib.userUnitsPerDbu;
  options.metersPerDbu = lib.metersPerDbu;
  StreamWriter writer(path, options);
  if (!writer.ok()) return -1;
  for (const Cell& cell : lib.cells) {
    writer.beginCell(cell.name);
    for (const Boundary& b : cell.boundaries) writer.addBoundary(b);
    for (const Sref& s : cell.srefs) writer.addSref(s);
    for (const Aref& a : cell.arefs) writer.addAref(a);
    writer.endCell();
  }
  return writer.finish();
}

long long Writer::streamSize(const Library& lib) {
  // Closed-form accounting mirroring serialize(); kept in sync by the
  // round-trip unit test.
  long long size = 4 + 2;           // HEADER
  size += 4 + 24;                   // BGNLIB
  size += 4 + static_cast<long long>((lib.name.size() + 1) / 2 * 2);
  size += 4 + 16;                   // UNITS
  for (const Cell& cell : lib.cells) {
    size += 4 + 24;                 // BGNSTR
    size += 4 + static_cast<long long>((cell.name.size() + 1) / 2 * 2);
    for (const Boundary& b : cell.boundaries) {
      size += 4;                    // BOUNDARY
      size += 4 + 2;                // LAYER
      size += 4 + 2;                // DATATYPE
      // XY, with the repeated first vertex when there is one.
      const auto n = static_cast<long long>(b.vertices.size());
      size += 4 + 8 * (n > 0 ? n + 1 : 0);
      size += 4;                    // ENDEL
    }
    for (const Sref& s : cell.srefs) {
      size += 4;                    // SREF
      size += 4 + static_cast<long long>((s.cellName.size() + 1) / 2 * 2);
      size += 4 + 8;                // XY
      size += 4;                    // ENDEL
    }
    for (const Aref& a : cell.arefs) {
      size += 4;                    // AREF
      size += 4 + static_cast<long long>((a.cellName.size() + 1) / 2 * 2);
      size += 4 + 4;                // COLROW
      size += 4 + 24;               // XY (3 points)
      size += 4;                    // ENDEL
    }
    size += 4;                      // ENDSTR
  }
  size += 4;                        // ENDLIB
  return size;
}

void Writer::addRect(Cell& cell, std::int16_t layer, const geom::Rect& r,
                     std::int16_t datatype) {
  Boundary b;
  b.layer = layer;
  b.datatype = datatype;
  b.vertices = {{r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}};
  cell.boundaries.push_back(std::move(b));
}

}  // namespace ofl::gds

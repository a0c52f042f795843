#include "gds/oasis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace ofl::gds {
namespace {

constexpr char kMagic[] = "OFLOASIS1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

enum RecordId : std::uint8_t {
  kEnd = 0x00,
  kStart = 0x01,
  kCellRec = 0x02,
  kRectRec = 0x03,
  kPolygonRec = 0x04,
  kPlacementRec = 0x05,
  kArrayRec = 0x06,
};

// Info-byte bits for kRectRec.
enum RectBits : std::uint8_t {
  kLayerChanged = 1 << 0,
  kDatatypeChanged = 1 << 1,
  kWidthChanged = 1 << 2,
  kHeightChanged = 1 << 3,
};

void putString(std::vector<std::uint8_t>& out, const std::string& s) {
  putVarUint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void putDouble(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

std::optional<std::string> getString(std::span<const std::uint8_t> bytes,
                                     std::size_t& pos) {
  const auto len = getVarUint(bytes, pos);
  if (!len.has_value() || pos + *len > bytes.size()) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(bytes.data() + pos),
                static_cast<std::size_t>(*len));
  pos += static_cast<std::size_t>(*len);
  return s;
}

std::optional<double> getDouble(std::span<const std::uint8_t> bytes,
                                std::size_t& pos) {
  if (pos + 8 > bytes.size()) return std::nullopt;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
  }
  pos += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// True when the boundary is an axis-aligned rectangle; fills dims.
bool asRect(const Boundary& b, geom::Rect& out) {
  if (b.vertices.size() != 4) return false;
  geom::Coord xl = b.vertices[0].x, xh = xl, yl = b.vertices[0].y, yh = yl;
  for (const geom::Point& p : b.vertices) {
    xl = std::min(xl, p.x);
    xh = std::max(xh, p.x);
    yl = std::min(yl, p.y);
    yh = std::max(yh, p.y);
  }
  // All four corners must be hit exactly once.
  int corners = 0;
  for (const geom::Point& p : b.vertices) {
    if ((p.x == xl || p.x == xh) && (p.y == yl || p.y == yh)) ++corners;
  }
  if (corners != 4 || xl == xh || yl == yh) return false;
  // Distinct corners check (reject bow-ties that still touch 4 extremes).
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      if (b.vertices[i] == b.vertices[j]) return false;
    }
  }
  out = {xl, yl, xh, yh};
  return true;
}

// Modal state shared by writer and reader; reset per cell.
struct Modal {
  std::int64_t layer = -1;
  std::int64_t datatype = -1;
  geom::Coord width = -1;
  geom::Coord height = -1;
  geom::Coord x = 0;
  geom::Coord y = 0;
};

}  // namespace

void putVarUint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void putVarInt(std::vector<std::uint8_t>& out, std::int64_t v) {
  // Zigzag encoding.
  putVarUint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

std::optional<std::uint64_t> getVarUint(std::span<const std::uint8_t> bytes,
                                        std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < bytes.size()) {
    const std::uint8_t byte = bytes[pos++];
    if (shift >= 64) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return std::nullopt;
}

std::optional<std::int64_t> getVarInt(std::span<const std::uint8_t> bytes,
                                      std::size_t& pos) {
  const auto raw = getVarUint(bytes, pos);
  if (!raw.has_value()) return std::nullopt;
  return static_cast<std::int64_t>(*raw >> 1) ^
         -static_cast<std::int64_t>(*raw & 1);
}

std::vector<std::uint8_t> OasisWriter::serialize(const Library& lib) {
  std::vector<std::uint8_t> out(kMagic, kMagic + kMagicLen);
  out.push_back(kStart);
  putString(out, lib.name);
  putDouble(out, lib.userUnitsPerDbu);
  putDouble(out, lib.metersPerDbu);

  for (const Cell& cell : lib.cells) {
    out.push_back(kCellRec);
    putString(out, cell.name);
    Modal modal;

    // Rect-shaped boundaries sorted for delta locality; general polygons
    // and references follow in input order.
    struct RectEntry {
      std::int64_t layer;
      std::int64_t datatype;
      geom::Rect rect;
    };
    std::vector<RectEntry> rects;
    std::vector<const Boundary*> polygons;
    for (const Boundary& b : cell.boundaries) {
      geom::Rect r;
      if (asRect(b, r)) {
        rects.push_back({b.layer, b.datatype, r});
      } else {
        polygons.push_back(&b);
      }
    }
    std::sort(rects.begin(), rects.end(),
              [](const RectEntry& a, const RectEntry& b) {
                if (a.layer != b.layer) return a.layer < b.layer;
                if (a.datatype != b.datatype) return a.datatype < b.datatype;
                return geom::RectYXLess{}(a.rect, b.rect);
              });

    for (const RectEntry& e : rects) {
      std::uint8_t info = 0;
      if (e.layer != modal.layer) info |= kLayerChanged;
      if (e.datatype != modal.datatype) info |= kDatatypeChanged;
      if (e.rect.width() != modal.width) info |= kWidthChanged;
      if (e.rect.height() != modal.height) info |= kHeightChanged;
      out.push_back(kRectRec);
      out.push_back(info);
      if (info & kLayerChanged) putVarUint(out, static_cast<std::uint64_t>(e.layer));
      if (info & kDatatypeChanged) {
        putVarUint(out, static_cast<std::uint64_t>(e.datatype));
      }
      if (info & kWidthChanged) putVarUint(out, static_cast<std::uint64_t>(e.rect.width()));
      if (info & kHeightChanged) {
        putVarUint(out, static_cast<std::uint64_t>(e.rect.height()));
      }
      putVarInt(out, e.rect.xl - modal.x);
      putVarInt(out, e.rect.yl - modal.y);
      modal.layer = e.layer;
      modal.datatype = e.datatype;
      modal.width = e.rect.width();
      modal.height = e.rect.height();
      modal.x = e.rect.xl;
      modal.y = e.rect.yl;
    }

    for (const Boundary* b : polygons) {
      out.push_back(kPolygonRec);
      putVarUint(out, static_cast<std::uint64_t>(b->layer));
      putVarUint(out, static_cast<std::uint64_t>(b->datatype));
      putVarUint(out, b->vertices.size());
      geom::Point prev{modal.x, modal.y};
      for (const geom::Point& p : b->vertices) {
        putVarInt(out, p.x - prev.x);
        putVarInt(out, p.y - prev.y);
        prev = p;
      }
      modal.x = prev.x;
      modal.y = prev.y;
    }

    for (const Sref& s : cell.srefs) {
      out.push_back(kPlacementRec);
      putString(out, s.cellName);
      putVarInt(out, s.origin.x - modal.x);
      putVarInt(out, s.origin.y - modal.y);
      modal.x = s.origin.x;
      modal.y = s.origin.y;
    }
    for (const Aref& a : cell.arefs) {
      out.push_back(kArrayRec);
      putString(out, a.cellName);
      putVarInt(out, a.origin.x - modal.x);
      putVarInt(out, a.origin.y - modal.y);
      putVarUint(out, static_cast<std::uint64_t>(a.cols));
      putVarUint(out, static_cast<std::uint64_t>(a.rows));
      putVarInt(out, a.pitchX);
      putVarInt(out, a.pitchY);
      modal.x = a.origin.x;
      modal.y = a.origin.y;
    }
  }
  out.push_back(kEnd);
  return out;
}

long long OasisWriter::writeFile(const Library& lib, const std::string& path) {
  const auto bytes = serialize(lib);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return written == bytes.size() ? static_cast<long long>(bytes.size()) : -1;
}

long long OasisWriter::streamSize(const Library& lib) {
  return static_cast<long long>(serialize(lib).size());
}

std::optional<Library> OasisReader::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    return std::nullopt;
  }
  std::size_t pos = kMagicLen;
  if (pos >= bytes.size() || bytes[pos++] != kStart) return std::nullopt;

  Library lib;
  {
    auto name = getString(bytes, pos);
    auto uu = getDouble(bytes, pos);
    auto mu = getDouble(bytes, pos);
    if (!name || !uu || !mu) return std::nullopt;
    lib.name = *name;
    lib.userUnitsPerDbu = *uu;
    lib.metersPerDbu = *mu;
  }

  Cell* cell = nullptr;
  Modal modal;
  while (pos < bytes.size()) {
    const std::uint8_t rec = bytes[pos++];
    switch (rec) {
      case kEnd:
        return lib;
      case kCellRec: {
        auto name = getString(bytes, pos);
        if (!name) return std::nullopt;
        lib.cells.emplace_back();
        cell = &lib.cells.back();
        cell->name = *name;
        modal = Modal{};
        break;
      }
      case kRectRec: {
        if (cell == nullptr || pos >= bytes.size()) return std::nullopt;
        const std::uint8_t info = bytes[pos++];
        if (info & kLayerChanged) {
          auto v = getVarUint(bytes, pos);
          if (!v) return std::nullopt;
          modal.layer = static_cast<std::int64_t>(*v);
        }
        if (info & kDatatypeChanged) {
          auto v = getVarUint(bytes, pos);
          if (!v) return std::nullopt;
          modal.datatype = static_cast<std::int64_t>(*v);
        }
        if (info & kWidthChanged) {
          auto v = getVarUint(bytes, pos);
          if (!v) return std::nullopt;
          modal.width = static_cast<geom::Coord>(*v);
        }
        if (info & kHeightChanged) {
          auto v = getVarUint(bytes, pos);
          if (!v) return std::nullopt;
          modal.height = static_cast<geom::Coord>(*v);
        }
        auto dx = getVarInt(bytes, pos);
        auto dy = getVarInt(bytes, pos);
        if (!dx || !dy || modal.layer < 0 || modal.width <= 0 ||
            modal.height <= 0) {
          return std::nullopt;
        }
        modal.x += *dx;
        modal.y += *dy;
        Writer::addRect(*cell, static_cast<std::int16_t>(modal.layer),
                        {modal.x, modal.y, modal.x + modal.width,
                         modal.y + modal.height},
                        static_cast<std::int16_t>(modal.datatype));
        break;
      }
      case kPolygonRec: {
        if (cell == nullptr) return std::nullopt;
        auto layer = getVarUint(bytes, pos);
        auto datatype = getVarUint(bytes, pos);
        auto count = getVarUint(bytes, pos);
        if (!layer || !datatype || !count || *count > 1u << 20) {
          return std::nullopt;
        }
        Boundary b;
        b.layer = static_cast<std::int16_t>(*layer);
        b.datatype = static_cast<std::int16_t>(*datatype);
        geom::Point prev{modal.x, modal.y};
        for (std::uint64_t i = 0; i < *count; ++i) {
          auto dx = getVarInt(bytes, pos);
          auto dy = getVarInt(bytes, pos);
          if (!dx || !dy) return std::nullopt;
          prev = {prev.x + *dx, prev.y + *dy};
          b.vertices.push_back(prev);
        }
        modal.x = prev.x;
        modal.y = prev.y;
        cell->boundaries.push_back(std::move(b));
        break;
      }
      case kPlacementRec: {
        if (cell == nullptr) return std::nullopt;
        auto name = getString(bytes, pos);
        auto dx = getVarInt(bytes, pos);
        auto dy = getVarInt(bytes, pos);
        if (!name || !dx || !dy) return std::nullopt;
        modal.x += *dx;
        modal.y += *dy;
        cell->srefs.push_back({*name, {modal.x, modal.y}});
        break;
      }
      case kArrayRec: {
        if (cell == nullptr) return std::nullopt;
        auto name = getString(bytes, pos);
        auto dx = getVarInt(bytes, pos);
        auto dy = getVarInt(bytes, pos);
        auto cols = getVarUint(bytes, pos);
        auto rows = getVarUint(bytes, pos);
        auto px = getVarInt(bytes, pos);
        auto py = getVarInt(bytes, pos);
        if (!name || !dx || !dy || !cols || !rows || !px || !py ||
            *cols > 1u << 20 || *rows > 1u << 20) {
          return std::nullopt;
        }
        modal.x += *dx;
        modal.y += *dy;
        Aref a;
        a.cellName = *name;
        a.origin = {modal.x, modal.y};
        a.cols = static_cast<int>(*cols);
        a.rows = static_cast<int>(*rows);
        a.pitchX = *px;
        a.pitchY = *py;
        cell->arefs.push_back(std::move(a));
        break;
      }
      default:
        return std::nullopt;  // unknown record
    }
  }
  return std::nullopt;  // missing END
}

namespace {

// Incremental varint/string decoders over a ByteSource; std::nullopt on
// truncation or overflow, matching the span-based getVarUint family.
std::optional<std::uint64_t> readVarUint(ByteSource& src) {
  std::uint64_t v = 0;
  int shift = 0;
  while (src.ensure(1) >= 1) {
    const std::uint8_t byte = src.data()[0];
    src.consume(1);
    if (shift >= 64) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return std::nullopt;
}

std::optional<std::int64_t> readVarInt(ByteSource& src) {
  const auto raw = readVarUint(src);
  if (!raw.has_value()) return std::nullopt;
  return static_cast<std::int64_t>(*raw >> 1) ^
         -static_cast<std::int64_t>(*raw & 1);
}

std::optional<std::string> readString(ByteSource& src, std::size_t maxBytes) {
  const auto len = readVarUint(src);
  if (!len.has_value() || *len > maxBytes) return std::nullopt;
  const std::size_t n = static_cast<std::size_t>(*len);
  if (src.ensure(n) < n) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(src.data()), n);
  src.consume(n);
  return s;
}

std::optional<double> readDouble(ByteSource& src) {
  if (src.ensure(8) < 8) return std::nullopt;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(src.data()[i]) << (8 * i);
  }
  src.consume(8);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

bool OasisStreamReader::scan(const std::string& path, StreamEvents& events,
                             std::string* error) {
  return scan(path, events, error, Options{});
}

bool OasisStreamReader::scan(const std::string& path, StreamEvents& events,
                             std::string* error, const Options& options) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  ByteSource src(path, ByteSource::Options{options.chunkBytes});
  if (!src.ok()) return fail("cannot open file");

  if (src.ensure(kMagicLen + 1) < kMagicLen + 1 ||
      std::memcmp(src.data(), kMagic, kMagicLen) != 0 ||
      src.data()[kMagicLen] != kStart) {
    return fail("not an OFL-OASIS stream");
  }
  src.consume(kMagicLen + 1);
  {
    const auto name = readString(src, options.maxStringBytes);
    const auto uu = readDouble(src);
    const auto mu = readDouble(src);
    if (!name || !uu || !mu) return fail("truncated START record");
    events.onLibraryName(*name);
    events.onUnits(*uu, *mu);
  }

  bool inCell = false;
  Modal modal;
  Boundary shape;  // reused: its vertex buffer keeps its capacity
  while (true) {
    if (src.ensure(1) < 1) {
      return fail(src.ioError() ? "read error" : "missing END record");
    }
    const std::uint8_t rec = src.data()[0];
    src.consume(1);
    switch (rec) {
      case kEnd:
        if (inCell) events.onEndCell();
        return true;
      case kCellRec: {
        const auto name = readString(src, options.maxStringBytes);
        if (!name) return fail("truncated CELL record");
        if (inCell) events.onEndCell();
        inCell = true;
        events.onBeginCell();
        events.onCellName(*name);
        modal = Modal{};
        break;
      }
      case kRectRec: {
        if (!inCell || src.ensure(1) < 1) return fail("malformed RECT record");
        const std::uint8_t info = src.data()[0];
        src.consume(1);
        if (info & kLayerChanged) {
          const auto v = readVarUint(src);
          if (!v) return fail("malformed RECT record");
          modal.layer = static_cast<std::int64_t>(*v);
        }
        if (info & kDatatypeChanged) {
          const auto v = readVarUint(src);
          if (!v) return fail("malformed RECT record");
          modal.datatype = static_cast<std::int64_t>(*v);
        }
        if (info & kWidthChanged) {
          const auto v = readVarUint(src);
          if (!v) return fail("malformed RECT record");
          modal.width = static_cast<geom::Coord>(*v);
        }
        if (info & kHeightChanged) {
          const auto v = readVarUint(src);
          if (!v) return fail("malformed RECT record");
          modal.height = static_cast<geom::Coord>(*v);
        }
        const auto dx = readVarInt(src);
        const auto dy = readVarInt(src);
        if (!dx || !dy || modal.layer < 0 || modal.width <= 0 ||
            modal.height <= 0) {
          return fail("malformed RECT record");
        }
        modal.x += *dx;
        modal.y += *dy;
        shape.layer = static_cast<std::int16_t>(modal.layer);
        shape.datatype = static_cast<std::int16_t>(modal.datatype);
        shape.vertices = {{modal.x, modal.y},
                          {modal.x + modal.width, modal.y},
                          {modal.x + modal.width, modal.y + modal.height},
                          {modal.x, modal.y + modal.height}};
        events.onBoundary(shape);
        break;
      }
      case kPolygonRec: {
        if (!inCell) return fail("POLYGON outside cell");
        const auto layer = readVarUint(src);
        const auto datatype = readVarUint(src);
        const auto count = readVarUint(src);
        if (!layer || !datatype || !count || *count > 1u << 20) {
          return fail("malformed POLYGON record");
        }
        shape.layer = static_cast<std::int16_t>(*layer);
        shape.datatype = static_cast<std::int16_t>(*datatype);
        shape.vertices.clear();
        geom::Point prev{modal.x, modal.y};
        for (std::uint64_t i = 0; i < *count; ++i) {
          const auto dx = readVarInt(src);
          const auto dy = readVarInt(src);
          if (!dx || !dy) return fail("malformed POLYGON record");
          prev = {prev.x + *dx, prev.y + *dy};
          shape.vertices.push_back(prev);
        }
        modal.x = prev.x;
        modal.y = prev.y;
        events.onBoundary(shape);
        break;
      }
      case kPlacementRec: {
        if (!inCell) return fail("PLACEMENT outside cell");
        const auto name = readString(src, options.maxStringBytes);
        const auto dx = readVarInt(src);
        const auto dy = readVarInt(src);
        if (!name || !dx || !dy) return fail("malformed PLACEMENT record");
        modal.x += *dx;
        modal.y += *dy;
        events.onSref({*name, {modal.x, modal.y}});
        break;
      }
      case kArrayRec: {
        if (!inCell) return fail("ARRAY outside cell");
        const auto name = readString(src, options.maxStringBytes);
        const auto dx = readVarInt(src);
        const auto dy = readVarInt(src);
        const auto cols = readVarUint(src);
        const auto rows = readVarUint(src);
        const auto px = readVarInt(src);
        const auto py = readVarInt(src);
        if (!name || !dx || !dy || !cols || !rows || !px || !py ||
            *cols > 1u << 20 || *rows > 1u << 20) {
          return fail("malformed ARRAY record");
        }
        modal.x += *dx;
        modal.y += *dy;
        Aref a;
        a.cellName = *name;
        a.origin = {modal.x, modal.y};
        a.cols = static_cast<int>(*cols);
        a.rows = static_cast<int>(*rows);
        a.pitchX = *px;
        a.pitchY = *py;
        events.onAref(a);
        break;
      }
      default:
        return fail("unknown record");
    }
  }
}

}  // namespace ofl::gds

#include "gds/layout_scan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "gds/oasis.hpp"
#include "geometry/decompose.hpp"

namespace ofl::gds {

bool isOasisFile(const std::string& path) {
  static constexpr char kOasisMagic[] = "OFLOASIS1\n";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char head[sizeof(kOasisMagic) - 1];
  const std::size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return got == sizeof(head) &&
         std::memcmp(head, kOasisMagic, sizeof(head)) == 0;
}

bool scanLayoutFile(const std::string& path, StreamEvents& events,
                    std::string* error, std::size_t chunkBytes) {
  if (isOasisFile(path)) {
    OasisStreamReader::Options o;
    o.chunkBytes = chunkBytes;
    return OasisStreamReader::scan(path, events, error, o);
  }
  StreamReader::Options o;
  o.chunkBytes = chunkBytes;
  return StreamReader::scan(path, events, error, o);
}

void ExtentScan::onBoundary(const Boundary& b) {
  maxLayer = std::max<int>(maxLayer, b.layer);
  bbox = bbox.bboxUnion(geom::boundingBox(b.vertices));
}

RectIngest::RectIngest(RectSink sink)
    : sink_(std::move(sink)),
      flatten_([this](const Boundary& b) { ingest(b); }) {}

void RectIngest::ingest(const Boundary& b) {
  const int l = b.layer - 1;
  if (l < 0 || !error_.empty()) return;
  if (const auto box = geom::rectLoop(b.vertices)) {
    if (!box->empty()) sink_(l, b.datatype, *box);
    return;
  }
  if (!geom::isManhattan(b.vertices)) {
    error_ = "non-Manhattan BOUNDARY on layer " + std::to_string(b.layer) +
             ": only horizontal and vertical edges are supported";
    return;
  }
  for (const geom::Rect& r : geom::decompose(geom::Polygon(b.vertices))) {
    sink_(l, b.datatype, r);
  }
}

bool RectIngest::finish(std::string* error) {
  if (error_.empty() && !flatten_.finish(error)) return false;
  if (error_.empty()) return true;
  if (error != nullptr) *error = error_;
  return false;
}

}  // namespace ofl::gds

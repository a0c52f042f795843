#include "service/layout_io.hpp"

#include <algorithm>
#include <cstdio>

#include "gds/layout_scan.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_reader.hpp"
#include "layout/gds_compact.hpp"
#include "obs/trace.hpp"

namespace ofl::service {

namespace {

// The loader behind both entry points; `scan` feeds the file's records
// into the ingest and returns false on unreadable or malformed input.
template <typename Scan>
bool loadFlat(Scan&& scan, const std::string& path,
              const std::optional<geom::Rect>& die, layout::Layout* out,
              std::string* error) {
  std::vector<layout::Layer> layers;  // grown to the highest layer seen
  gds::RectIngest ingest(
      [&layers](int l, std::int16_t datatype, const geom::Rect& r) {
        const auto i = static_cast<std::size_t>(l);
        if (i >= layers.size()) layers.resize(i + 1);
        (datatype == 1 ? layers[i].fills : layers[i].wires).push_back(r);
      });
  if (!scan(ingest)) {
    *error = "cannot read layout file: " + path;
    return false;
  }
  if (!ingest.finish(error)) return false;
  const geom::Rect effectiveDie = die.value_or(ingest.extents().bbox);
  if (effectiveDie.empty()) {
    *error = "layout is empty and no die given";
    return false;
  }
  // Every flat shape comes from some structure, so layers.size() never
  // exceeds the highest layer the extents saw.
  *out = layout::Layout(effectiveDie, std::max(ingest.extents().maxLayer, 1));
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layout::Layer& layer = out->layer(static_cast<int>(i));
    layer.wires = std::move(layers[i].wires);
    layer.fills = std::move(layers[i].fills);
  }
  return true;
}

}  // namespace

bool loadFlatLayout(const std::string& path,
                    const std::optional<geom::Rect>& die, layout::Layout* out,
                    std::string* error) {
  obs::ScopedSpan span("layout.load", "io");
  if (path.empty()) {
    *error = "missing input file path";
    return false;
  }
  return loadFlat(
      [&path](gds::RectIngest& ingest) {
        return gds::scanLayoutFile(path, ingest, nullptr);
      },
      path, die, out, error);
}

bool loadFlatGds(std::span<const std::uint8_t> bytes, const std::string& path,
                 const std::optional<geom::Rect>& die, layout::Layout* out,
                 std::string* error) {
  obs::ScopedSpan span("layout.load", "io");
  return loadFlat(
      [bytes](gds::RectIngest& ingest) {
        return gds::StreamReader::scan(bytes, ingest, nullptr);
      },
      path, die, out, error);
}

bool readFileBytes(const std::string& path, std::vector<std::uint8_t>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(f) : -1;
  ok = size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    bytes->resize(static_cast<std::size_t>(size));
    ok = std::fread(bytes->data(), 1, bytes->size(), f) == bytes->size() &&
         std::fgetc(f) == EOF;
  }
  std::fclose(f);
  return ok;
}

long long writeLayout(const layout::Layout& chip, const std::string& path,
                      OutputFormat format, bool compact) {
  obs::ScopedSpan span("gds.write", "io");
  if (format == OutputFormat::kGds && !compact) return chip.writeGds(path);
  const gds::Library lib = compact ? layout::toCompactGds(chip) : chip.toGds();
  return format == OutputFormat::kOasis ? gds::OasisWriter::writeFile(lib, path)
                                        : gds::Writer::writeFile(lib, path);
}

}  // namespace ofl::service

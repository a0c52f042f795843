#include "service/layout_io.hpp"

#include <algorithm>

#include "gds/layout_scan.hpp"
#include "gds/oasis.hpp"
#include "layout/gds_compact.hpp"
#include "obs/trace.hpp"

namespace ofl::service {

bool loadFlatLayout(const std::string& path,
                    const std::optional<geom::Rect>& die, layout::Layout* out,
                    std::string* error) {
  obs::ScopedSpan span("layout.load", "io");
  if (path.empty()) {
    *error = "missing input file path";
    return false;
  }
  std::vector<layout::Layer> layers;  // grown to the highest layer seen
  gds::RectIngest ingest(
      [&layers](int l, std::int16_t datatype, const geom::Rect& r) {
        const auto i = static_cast<std::size_t>(l);
        if (i >= layers.size()) layers.resize(i + 1);
        (datatype == 1 ? layers[i].fills : layers[i].wires).push_back(r);
      });
  if (!gds::scanLayoutFile(path, ingest, nullptr)) {
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

long long writeLayout(const layout::Layout& chip, const std::string& path,
                      OutputFormat format, bool compact) {
  obs::ScopedSpan span("gds.write", "io");
  if (format == OutputFormat::kGds && !compact) return chip.writeGds(path);
  const gds::Library lib = compact ? layout::toCompactGds(chip) : chip.toGds();
  return format == OutputFormat::kOasis ? gds::OasisWriter::writeFile(lib, path)
                                        : gds::Writer::writeFile(lib, path);
}

}  // namespace ofl::service

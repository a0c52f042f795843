#include "layout/layout.hpp"

#include "gds/flatten.hpp"
#include "gds/record_builder.hpp"
#include "gds/stream_writer.hpp"
#include "geometry/decompose.hpp"

namespace ofl::layout {

Layout::Layout(geom::Rect die, int numLayers) : die_(die) {
  layers_.resize(static_cast<std::size_t>(numLayers));
  for (int l = 0; l < numLayers; ++l) {
    layers_[static_cast<std::size_t>(l)].name = "metal" + std::to_string(l + 1);
  }
}

std::size_t Layout::wireCount() const {
  std::size_t n = 0;
  for (const Layer& layer : layers_) n += layer.wires.size();
  return n;
}

std::size_t Layout::fillCount() const {
  std::size_t n = 0;
  for (const Layer& layer : layers_) n += layer.fills.size();
  return n;
}

void Layout::clearFills() {
  for (Layer& layer : layers_) layer.fills.clear();
}

gds::Library Layout::toGds(const std::string& topName) const {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Cell& cell = lib.cells.back();
  cell.name = topName;
  for (int l = 0; l < numLayers(); ++l) {
    const auto gdsLayer = static_cast<std::int16_t>(l + 1);
    for (const geom::Rect& r : layer(l).wires) {
      gds::Writer::addRect(cell, gdsLayer, r, /*datatype=*/0);
    }
    for (const geom::Rect& r : layer(l).fills) {
      gds::Writer::addRect(cell, gdsLayer, r, /*datatype=*/1);
    }
  }
  return lib;
}

long long Layout::writeGds(const std::string& path) const {
  gds::StreamWriter writer(path);
  if (!writer.ok()) return -1;
  writer.beginCell("TOP");
  for (int l = 0; l < numLayers(); ++l) {
    const auto gdsLayer = static_cast<std::int16_t>(l + 1);
    for (const geom::Rect& r : layer(l).wires) {
      writer.addRect(gdsLayer, r, /*datatype=*/0);
    }
    for (const geom::Rect& r : layer(l).fills) {
      writer.addRect(gdsLayer, r, /*datatype=*/1);
    }
  }
  writer.endCell();
  return writer.finish();
}

long long Layout::gdsStreamSize() const {
  // Everything but the shapes is what an empty layout writes.
  static const long long frame = gds::Writer::streamSize(Layout().toGds());
  return frame + static_cast<long long>(gds::record::kRectRecordBytes *
                                        (wireCount() + fillCount()));
}

Layout Layout::fromGds(const gds::Library& lib, const geom::Rect& die,
                       int numLayers) {
  Layout layout(die, numLayers);
  // Resolve any hierarchy (e.g. compacted fill arrays) into boundaries.
  // Referenced cells' shapes are placed where their instances put them, so
  // only the TOP-level expansion is loaded: expanding every cell would
  // duplicate the fill-cell masters at the origin.
  gds::Library flat;
  if (!lib.cells.empty()) {
    flat.cells.push_back(gds::flattenCell(lib));
  }
  for (const gds::Cell& cell : flat.cells) {
    for (const gds::Boundary& b : cell.boundaries) {
      const int l = b.layer - 1;
      if (l < 0 || l >= numLayers) continue;
      const std::vector<geom::Rect> rects =
          geom::decompose(geom::Polygon(b.vertices));
      auto& bucket = (b.datatype == 1) ? layout.layer(l).fills
                                       : layout.layer(l).wires;
      bucket.insert(bucket.end(), rects.begin(), rects.end());
    }
  }
  return layout;
}

}  // namespace ofl::layout

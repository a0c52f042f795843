#include "verify/layout_gen.hpp"

#include <algorithm>
#include <string>

namespace ofl::testing {

geom::Rect LayoutGen::randomRect(Rng& rng, geom::Coord extent,
                                 geom::Coord maxEdge) {
  const geom::Coord w = rng.uniformInt(1, maxEdge);
  const geom::Coord h = rng.uniformInt(1, maxEdge);
  const geom::Coord x = rng.uniformInt(0, extent - w);
  const geom::Coord y = rng.uniformInt(0, extent - h);
  return {x, y, x + w, y + h};
}

gds::Library LayoutGen::randomLibrary(Rng& rng, const LibraryParams& params) {
  gds::Library lib;
  lib.name = "FUZZ";
  const int cells =
      static_cast<int>(rng.uniformInt(params.minCells, params.maxCells));
  for (int c = 0; c < cells; ++c) {
    lib.cells.emplace_back();
    gds::Cell& cell = lib.cells.back();
    cell.name = 'C' + std::to_string(c);
    const int shapes =
        static_cast<int>(rng.uniformInt(0, params.maxShapesPerCell));
    for (int s = 0; s < shapes; ++s) {
      const geom::Coord x =
          rng.uniformInt(-params.coordExtent, params.coordExtent);
      const geom::Coord y =
          rng.uniformInt(-params.coordExtent, params.coordExtent);
      const geom::Coord w = rng.uniformInt(1, params.maxEdge);
      const geom::Coord h = rng.uniformInt(1, params.maxEdge);
      gds::Writer::addRect(
          cell, static_cast<std::int16_t>(rng.uniformInt(1, params.maxLayer)),
          {x, y, x + w, y + h},
          static_cast<std::int16_t>(rng.uniformInt(0, 1)));
    }
  }
  return lib;
}

layout::Layout LayoutGen::randomLayout(Rng& rng, const LayoutParams& params) {
  const geom::Coord extent =
      rng.uniformInt(params.minDieExtent, params.maxDieExtent);
  const int layers =
      static_cast<int>(rng.uniformInt(params.minLayers, params.maxLayers));
  layout::Layout chip({0, 0, extent, extent}, layers);

  const auto meanBar = static_cast<geom::Coord>(
      std::max(1.0, params.barLengthFraction * static_cast<double>(extent)));
  for (int l = 0; l < layers; ++l) {
    const int wires = static_cast<int>(
        rng.uniformInt(params.minWiresPerLayer, params.maxWiresPerLayer));
    for (int i = 0; i < wires; ++i) {
      const geom::Coord width =
          rng.uniformInt(params.wireWidthMin, params.wireWidthMax);
      geom::Rect r;
      if (rng.bernoulli(params.blockProbability)) {
        // Square-ish macro block.
        const geom::Coord side = rng.uniformInt(width, 4 * width);
        r = {0, 0, side, std::max<geom::Coord>(1, side + rng.uniformInt(-width, width))};
      } else if (rng.bernoulli(0.5)) {
        // Horizontal bar.
        r = {0, 0, rng.uniformInt(width, 2 * meanBar), width};
      } else {
        // Vertical bar.
        r = {0, 0, width, rng.uniformInt(width, 2 * meanBar)};
      }
      const geom::Coord w = std::min(r.width(), extent);
      const geom::Coord h = std::min(r.height(), extent);
      const geom::Coord x = rng.uniformInt(0, extent - w);
      const geom::Coord y = rng.uniformInt(0, extent - h);
      chip.layer(l).wires.push_back({x, y, x + w, y + h});
    }
  }
  return chip;
}

}  // namespace ofl::testing

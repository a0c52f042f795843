// Multi-layer layout database.
//
// A Layout holds, per metal layer, the signal wire shapes (fixed input) and
// the dummy fill shapes (the output of a filler). All shapes are axis-
// aligned rectangles in DBU; polygon inputs are decomposed on load (paper
// Section 3, "convert polygons to rectangles").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gds/gds_writer.hpp"
#include "geometry/rect.hpp"

namespace ofl::layout {

struct Layer {
  std::string name;
  std::vector<geom::Rect> wires;
  std::vector<geom::Rect> fills;
};

class Layout {
 public:
  Layout() = default;
  Layout(geom::Rect die, int numLayers);

  const geom::Rect& die() const { return die_; }
  int numLayers() const { return static_cast<int>(layers_.size()); }

  Layer& layer(int l) { return layers_[static_cast<std::size_t>(l)]; }
  const Layer& layer(int l) const {
    return layers_[static_cast<std::size_t>(l)];
  }

  std::size_t wireCount() const;
  std::size_t fillCount() const;

  /// Removes all fills (so a fresh filler can run on the same input).
  void clearFills();

  /// GDSII conversion. Wires carry datatype 0 and fills datatype 1 on GDS
  /// layer l+1 (GDS layer numbers are conventionally 1-based).
  gds::Library toGds(const std::string& topName = "TOP") const;

  /// Writes the flat GDSII stream of toGds() to `path` without building a
  /// Library: each layer's wires, then its fills, go straight through
  /// gds::StreamWriter::addRect. Its bytes equal
  /// gds::Writer::writeFile(toGds(), path). Returns the byte count, or -1
  /// on an I/O error.
  long long writeGds(const std::string& path) const;

  /// Size in bytes of the stream writeGds() writes, in closed form from
  /// the shape count: the fixed prologue, TOP cell frame and epilogue,
  /// plus one 64-byte BOUNDARY per rect. Equals
  /// gds::Writer::streamSize(toGds()).
  long long gdsStreamSize() const;

  /// Builds a layout from a GDS library produced by toGds(). `numLayers`
  /// caps the layer count; boundaries are decomposed into rectangles.
  static Layout fromGds(const gds::Library& lib, const geom::Rect& die,
                        int numLayers);

 private:
  geom::Rect die_;
  std::vector<Layer> layers_;
};

}  // namespace ofl::layout

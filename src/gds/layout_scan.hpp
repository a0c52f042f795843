// Layout-file front end shared by the in-memory loader
// (service::loadFlatLayout) and the sharded engine's pre-scan and ingest.
//
// Both paths tell GDSII from OFL-OASIS the same way, measure extents by
// the same rule and turn the same boundaries into the same rectangles in
// the same order, so they accept, reject and load every input alike.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "gds/stream_flatten.hpp"
#include "gds/stream_reader.hpp"
#include "geometry/rect.hpp"

namespace ofl::gds {

/// True when `path` starts with the OFL-OASIS magic; anything else is
/// read as GDSII.
bool isOasisFile(const std::string& path);

/// Scans a GDSII or OFL-OASIS file (told apart by isOasisFile) into
/// `events`. Returns false, with `*error` set when non-null, on IO
/// failure or malformed input.
bool scanLayoutFile(const std::string& path, StreamEvents& events,
                    std::string* error, std::size_t chunkBytes = 256 * 1024);

/// Layout extents: the bbox and highest GDS layer number over every
/// structure's boundaries, unflattened (a master cell's shapes count at
/// their own coordinates). Used alone, it is the sharded engine's pre-scan.
class ExtentScan : public StreamEvents {
 public:
  void onBoundary(const Boundary& b) override;

  geom::Rect bbox;  // {0,0,0,0} until a non-empty boundary is seen
  int maxLayer = 0;
};

/// Flat rectangle ingest. Expands the first structure's hierarchy
/// (FlattenStream) and decomposes every flat boundary on GDS layer >= 1
/// into rectangles, handed to the sink in flattenCell order as (layer
/// index = GDS layer - 1, datatype, rect). Boundaries on layer 0 and
/// below are dropped. Also measures the extents of every boundary read.
class RectIngest : public StreamEvents {
 public:
  using RectSink =
      std::function<void(int layer, std::int16_t datatype, const geom::Rect&)>;

  explicit RectIngest(RectSink sink);
  RectIngest(const RectIngest&) = delete;  // flatten_ calls back into this
  RectIngest& operator=(const RectIngest&) = delete;

  void onBeginCell() override { flatten_.onBeginCell(); }
  void onCellName(const std::string& name) override {
    flatten_.onCellName(name);
  }
  void onBoundary(const Boundary& b) override {
    extents_.onBoundary(b);
    flatten_.onBoundary(b);
  }
  void onSref(const Sref& s) override { flatten_.onSref(s); }
  void onAref(const Aref& a) override { flatten_.onAref(a); }

  /// Call once after the scan succeeds: expands the top cell's references
  /// and reports the first rejected input — a non-Manhattan boundary
  /// (named by its layer) or a reference back to the top cell. Returns
  /// false with `*error` set when non-null.
  bool finish(std::string* error);

  const ExtentScan& extents() const { return extents_; }

 private:
  void ingest(const Boundary& b);

  RectSink sink_;
  FlattenStream flatten_;
  ExtentScan extents_;
  std::string error_;
};

}  // namespace ofl::gds

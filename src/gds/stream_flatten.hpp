// Streaming hierarchy flattener.
//
// Adapts StreamReader events into the flat boundary sequence flattenCell
// would produce for the first (top) structure: the top cell's own
// boundaries pass straight through as they are parsed, while non-top
// structures — small master cells by construction — are buffered and
// expanded through the top cell's SREF/AREF lists at finish(), in
// flattenCell's exact order (boundaries, then srefs, then arefs,
// depth-first, unresolvable names skipped, same depth cap).
//
// One deliberate restriction: a reference that flattenCell would resolve
// to the top cell itself (self-referential hierarchies) is an error here,
// because the top cell's geometry has already been streamed away. Every
// layout file loads through this class, so such files are rejected by
// the in-memory and the streamed fill alike.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gds/stream_reader.hpp"

namespace ofl::gds {

class FlattenStream : public StreamEvents {
 public:
  /// Receives every flat (already translated) boundary, in flattenCell
  /// order. The reference is only valid during the call.
  using Sink = std::function<void(const Boundary&)>;

  explicit FlattenStream(Sink sink, int maxDepth = 8)
      : sink_(std::move(sink)), maxDepth_(maxDepth) {}

  void onBeginCell() override;
  void onCellName(const std::string& name) override;
  void onBoundary(const Boundary& b) override;
  void onSref(const Sref& s) override;
  void onAref(const Aref& a) override;

  /// Expands the buffered top-level references. Call once after the scan
  /// succeeds; returns false (with `*error` set when non-null) on a
  /// reference the streaming path cannot expand.
  bool finish(std::string* error);

  const std::string& topName() const { return topName_; }

 private:
  bool expandNamed(const std::string& name, geom::Coord dx, geom::Coord dy,
                   int depth, const std::map<std::string, const Cell*>& byName,
                   std::string* error);
  bool expandCell(const Cell& cell, geom::Coord dx, geom::Coord dy, int depth,
                  const std::map<std::string, const Cell*>& byName,
                  std::string* error);

  Sink sink_;
  int maxDepth_;
  bool sawTop_ = false;
  bool inTop_ = false;
  std::string topName_ = "TOP";  // Cell's default name, matching collectors
  std::vector<Sref> topSrefs_;
  std::vector<Aref> topArefs_;
  std::vector<Cell> masters_;
};

}  // namespace ofl::gds

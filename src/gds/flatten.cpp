#include "gds/flatten.hpp"

#include <map>

namespace ofl::gds {
namespace {

void appendTranslated(Cell& out, const Cell& source, geom::Coord dx,
                      geom::Coord dy) {
  for (const Boundary& b : source.boundaries) {
    Boundary moved = b;
    for (geom::Point& p : moved.vertices) {
      p.x += dx;
      p.y += dy;
    }
    out.boundaries.push_back(std::move(moved));
  }
}

void expandInto(Cell& out, const Cell& cell,
                const std::map<std::string, const Cell*>& byName,
                geom::Coord dx, geom::Coord dy, int depth) {
  appendTranslated(out, cell, dx, dy);
  if (depth <= 0) return;
  for (const Sref& s : cell.srefs) {
    const auto it = byName.find(s.cellName);
    if (it == byName.end()) continue;
    expandInto(out, *it->second, byName, dx + s.origin.x, dy + s.origin.y,
               depth - 1);
  }
  for (const Aref& a : cell.arefs) {
    const auto it = byName.find(a.cellName);
    if (it == byName.end()) continue;
    for (int r = 0; r < a.rows; ++r) {
      for (int c = 0; c < a.cols; ++c) {
        expandInto(out, *it->second, byName,
                   dx + a.origin.x + c * a.pitchX,
                   dy + a.origin.y + r * a.pitchY, depth - 1);
      }
    }
  }
}

std::map<std::string, const Cell*> indexCells(const Library& lib) {
  std::map<std::string, const Cell*> byName;
  for (const Cell& cell : lib.cells) byName[cell.name] = &cell;
  return byName;
}

}  // namespace

Cell flattenCell(const Library& lib, const std::string& top, int maxDepth) {
  const auto byName = indexCells(lib);
  Cell flat;
  const Cell* source = nullptr;
  if (top.empty()) {
    source = lib.cells.empty() ? nullptr : &lib.cells.front();
  } else {
    const auto it = byName.find(top);
    source = it == byName.end() ? nullptr : it->second;
  }
  if (source == nullptr) return flat;
  flat.name = source->name;
  expandInto(flat, *source, byName, 0, 0, maxDepth);
  return flat;
}

}  // namespace ofl::gds

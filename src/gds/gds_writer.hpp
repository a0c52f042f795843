// Minimal GDSII stream writer.
//
// The contest's file-size score is measured on the output GDSII, so the
// library writes real stream bytes (BOUNDARY elements). Rectangles are the
// only shape fills need; general polygons are also accepted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/polygon.hpp"
#include "geometry/rect.hpp"

namespace ofl::gds {

struct Boundary {
  std::int16_t layer = 0;
  std::int16_t datatype = 0;
  // Closed loop; the writer appends the repeated first vertex GDS requires.
  std::vector<geom::Point> vertices;
};

/// Cell reference (SREF): one translated instance of another cell.
struct Sref {
  std::string cellName;
  geom::Point origin;
};

/// Array reference (AREF): cols x rows translated instances on a regular
/// grid with the given pitches. This is the structure that makes regular
/// dummy-fill patterns cheap to store — the contest's file-size metric is
/// the reason hierarchical fill output matters (paper Section 1).
struct Aref {
  std::string cellName;
  geom::Point origin;
  int cols = 1;
  int rows = 1;
  geom::Coord pitchX = 0;
  geom::Coord pitchY = 0;
};

struct Cell {
  std::string name = "TOP";
  std::vector<Boundary> boundaries;
  std::vector<Sref> srefs;
  std::vector<Aref> arefs;
};

struct Library {
  std::string name = "OPENFILL";
  double userUnitsPerDbu = 1e-3;   // database units per user unit
  double metersPerDbu = 1e-9;      // database unit in meters (1 nm default)
  std::vector<Cell> cells;
};

class Writer {
 public:
  /// Serializes the library to GDSII stream bytes (for in-memory callers).
  static std::vector<std::uint8_t> serialize(const Library& lib);

  /// Writes to a file through StreamWriter, holding one flush buffer
  /// rather than the whole stream; the bytes equal serialize(lib).
  /// Returns the byte count (the "file size" metric), or -1 on IO failure.
  static long long writeFile(const Library& lib, const std::string& path);

  /// Size in bytes the library would occupy, without materializing it.
  static long long streamSize(const Library& lib);

  /// Convenience: appends one rect as a BOUNDARY to a cell.
  static void addRect(Cell& cell, std::int16_t layer, const geom::Rect& r,
                      std::int16_t datatype = 0);
};

}  // namespace ofl::gds

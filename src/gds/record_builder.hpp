// Shared GDSII record encoders.
//
// Writer::serialize (in-memory) and StreamWriter (bounded-memory append)
// both emit bytes through these helpers, so the streamed output is
// byte-identical to the batch output by construction rather than by test
// alone. Payload layouts follow gds_records.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gds/gds_records.hpp"
#include "gds/gds_writer.hpp"

namespace ofl::gds::record {

void append(std::vector<std::uint8_t>& out, RecordTag tag,
            const std::vector<std::uint8_t>& payload = {});

std::vector<std::uint8_t> asciiPayload(const std::string& s);

/// 12 zeroed int16 fields (modification + access time). The fixed epoch
/// keeps output byte-identical across runs, which the tests rely on.
std::vector<std::uint8_t> timestampPayload();

/// HEADER + BGNLIB + LIBNAME + UNITS.
void appendFilePrologue(std::vector<std::uint8_t>& out,
                        const std::string& libName, double userUnitsPerDbu,
                        double metersPerDbu);

/// BGNSTR + STRNAME.
void appendCellBegin(std::vector<std::uint8_t>& out, const std::string& name);

void appendBoundary(std::vector<std::uint8_t>& out, const Boundary& b);
void appendSref(std::vector<std::uint8_t>& out, const Sref& s);
void appendAref(std::vector<std::uint8_t>& out, const Aref& a);

/// Bytes appendRect adds: one rect's BOUNDARY element.
inline constexpr std::size_t kRectRecordBytes = 64;

/// One rect as a BOUNDARY, in Writer::addRect vertex order: the bytes
/// appendBoundary writes for that loop, through the same in-place encoder.
void appendRect(std::vector<std::uint8_t>& out, std::int16_t layer,
                const geom::Rect& r, std::int16_t datatype = 0);

void appendCellEnd(std::vector<std::uint8_t>& out);
void appendFileEpilogue(std::vector<std::uint8_t>& out);

}  // namespace ofl::gds::record

// Chunked GDSII stream reader.
//
// Parses records from a bounded sliding buffer (gds/byte_source.hpp) and
// reports shapes through an event sink, so arbitrarily large inputs are
// read with O(record) memory instead of O(file). It holds the only GDSII
// record state machine; its consumers are
//   - Reader::parse, which runs it over bytes already in memory into a
//     LibraryCollector (the in-memory scan entry);
//   - the layout front end (gds/layout_scan.hpp), which flattens and
//     decomposes boundaries straight into the in-memory loader's layers
//     or the sharded engine's spools without building a Library.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "gds/byte_source.hpp"
#include "gds/gds_records.hpp"
#include "gds/gds_writer.hpp"

namespace ofl::gds {

/// Pull-based record source: yields (tag, payload) pairs from a bounded
/// buffer. Payload spans are valid until the next next() call.
class RecordStream {
 public:
  struct Options {
    std::size_t chunkBytes = 256 * 1024;
    /// Upper bound on one record (header + payload). GDSII length fields
    /// are 16-bit so 65535 always suffices; tests lower it to exercise
    /// the oversized-record rejection.
    std::size_t maxRecordBytes = 65535;
  };

  enum class Status { kRecord, kEnd, kError };

  explicit RecordStream(const std::string& path);
  RecordStream(const std::string& path, const Options& options);

  /// kRecord: tag/payload filled. kEnd: clean end of file. kError: IO or
  /// framing failure, error() explains.
  Status next(RecordTag& tag, std::span<const std::uint8_t>& payload);

  const std::string& error() const { return error_; }

 private:
  ByteSource source_;
  std::size_t maxRecordBytes_;
  std::size_t pendingConsume_ = 0;  // previous record, consumed lazily
  std::string error_;
};

/// Event sink for StreamReader::scan. Default implementations ignore the
/// event, so consumers override only what they need.
class StreamEvents {
 public:
  virtual ~StreamEvents() = default;
  /// Library name and UNITS, reported as the records arrive.
  virtual void onLibraryName(const std::string& /*name*/) {}
  virtual void onUnits(double /*userUnitsPerDbu*/, double /*metersPerDbu*/) {}
  /// A structure begins (BGNSTR); its name follows via onCellName.
  virtual void onBeginCell() {}
  virtual void onCellName(const std::string& /*name*/) {}
  /// Completed elements (at ENDEL / structure end / next element).
  virtual void onBoundary(const Boundary& /*b*/) {}
  virtual void onSref(const Sref& /*s*/) {}
  virtual void onAref(const Aref& /*a*/) {}
  virtual void onEndCell() {}
};

class StreamReader {
 public:
  using Options = RecordStream::Options;

  /// Scans `path`, firing events in stream order. Returns false (with
  /// `*error` set when non-null) on IO failure or malformed input.
  static bool scan(const std::string& path, StreamEvents& events,
                   std::string* error, const Options& options = {});

  /// The same scan over stream bytes already in memory (a file read once
  /// into a buffer), with the same events and rejections; nothing past
  /// `bytes` is ever read.
  static bool scan(std::span<const std::uint8_t> bytes, StreamEvents& events,
                   std::string* error);
};

/// StreamEvents sink that assembles a full Library (Reader::parse's
/// backing store; also collects a scanned file when a whole Library is
/// wanted).
class LibraryCollector : public StreamEvents {
 public:
  void onLibraryName(const std::string& name) override { lib_.name = name; }
  void onUnits(double uu, double mu) override {
    lib_.userUnitsPerDbu = uu;
    lib_.metersPerDbu = mu;
  }
  void onBeginCell() override { lib_.cells.emplace_back(); }
  void onCellName(const std::string& name) override {
    if (!lib_.cells.empty()) lib_.cells.back().name = name;
  }
  void onBoundary(const Boundary& b) override {
    if (!lib_.cells.empty()) lib_.cells.back().boundaries.push_back(b);
  }
  void onSref(const Sref& s) override {
    if (!lib_.cells.empty()) lib_.cells.back().srefs.push_back(s);
  }
  void onAref(const Aref& a) override {
    if (!lib_.cells.empty()) lib_.cells.back().arefs.push_back(a);
  }

  Library& library() { return lib_; }
  Library takeLibrary() { return std::move(lib_); }

 private:
  Library lib_;
};

/// Whole-Library GDSII parser over stream bytes already in memory: the
/// record machine StreamReader::scan runs, with the same rejections.
class Reader {
 public:
  /// Parses stream bytes; returns nullopt on malformed input.
  static std::optional<Library> parse(std::span<const std::uint8_t> bytes);
};

}  // namespace ofl::gds

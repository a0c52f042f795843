// Append-only GDSII file writer with bounded memory.
//
// Emits the same bytes Writer::serialize produces (both go through
// gds/record_builder.hpp) but flushes to disk as elements are appended, so
// the sharded fill path can write multi-gigabyte outputs while holding
// only one flush buffer. Usage:
//
//   StreamWriter w(path);
//   w.beginCell("TOP");
//   w.addBoundary(...); w.addRect(...);   // any number, in final order
//   w.endCell();
//   long long bytes = w.finish();         // ENDLIB + flush; -1 on IO error
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "gds/gds_writer.hpp"

namespace ofl::gds {

class StreamWriter {
 public:
  struct Options {
    std::string libName = "OPENFILL";
    double userUnitsPerDbu = 1e-3;
    double metersPerDbu = 1e-9;
    /// Flush threshold for the in-memory record buffer.
    std::size_t flushBytes = 1 << 20;
  };

  explicit StreamWriter(const std::string& path);
  StreamWriter(const std::string& path, const Options& options);
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// False when the file could not be opened or a write failed.
  bool ok() const { return opened_ && !ioError_; }

  void beginCell(const std::string& name);
  void addBoundary(const Boundary& b);
  void addRect(std::int16_t layer, const geom::Rect& r,
               std::int16_t datatype = 0);
  void addSref(const Sref& s);
  void addAref(const Aref& a);
  /// Appends already-encoded element records verbatim, e.g. a span of
  /// another stream's BOUNDARY elements; the caller vouches for their
  /// framing.
  void addRaw(std::span<const std::uint8_t> records);
  void endCell();

  /// Writes ENDLIB, flushes, and closes. Returns total bytes written (the
  /// file-size metric) or -1 on IO failure. Idempotent.
  long long finish();

  /// Bytes emitted so far (buffered + flushed).
  long long bytesWritten() const { return bytesWritten_; }

 private:
  void maybeFlush();
  void flush();

  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buffer_;
  std::size_t flushBytes_;
  long long bytesWritten_ = 0;
  bool opened_ = false;
  bool inCell_ = false;
  bool finished_ = false;
  bool ioError_ = false;
};

}  // namespace ofl::gds

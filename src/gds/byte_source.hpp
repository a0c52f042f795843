// Buffered file byte source for the streaming readers.
//
// Reads a file in fixed-size chunks into a sliding buffer so a parser can
// consume records incrementally without ever holding the whole file in
// memory (the contest inputs run to gigabytes; see ROADMAP "Contest-scale
// inputs"). The buffer grows only to the largest single ensure() request,
// which the record-level readers bound (GDS records are <= 64 KiB by
// format; the OASIS reader caps strings explicitly).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ofl::gds {

class ByteSource {
 public:
  struct Options {
    /// Read granularity. Small values are used by tests to force record
    /// headers to straddle chunk boundaries.
    std::size_t chunkBytes = 256 * 1024;
  };

  explicit ByteSource(const std::string& path);
  ByteSource(const std::string& path, const Options& options);
  ~ByteSource();

  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  /// False when the file could not be opened.
  bool ok() const { return file_ != nullptr; }
  /// True after a read() syscall failed (distinct from clean EOF).
  bool ioError() const { return ioError_; }

  /// Tops up the buffer until at least `n` bytes are available or the file
  /// is exhausted; returns the bytes actually available (< n only at EOF
  /// or on IO error). The returned view is invalidated by the next
  /// ensure() call. Inline fast path: a request the buffer already holds
  /// costs one comparison.
  std::size_t ensure(std::size_t n) {
    return available() >= n ? available() : refill(n);
  }

  /// Start of the unconsumed bytes (valid for available() bytes).
  const std::uint8_t* data() const { return buffer_.data() + pos_; }
  std::size_t available() const { return buffer_.size() - pos_; }

  /// Advances past `n` buffered bytes (clamped to available()).
  void consume(std::size_t n) {
    const std::size_t take = n < available() ? n : available();
    pos_ += take;
    consumed_ += take;
  }

  /// Total bytes consumed so far (= current stream offset).
  std::uint64_t consumed() const { return consumed_; }

  /// True when every byte has been consumed and the file is exhausted.
  bool atEnd() { return ensure(1) == 0; }

 private:
  /// ensure()'s slow path: slides the tail down and reads chunks.
  std::size_t refill(std::size_t n);

  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  std::uint64_t consumed_ = 0;
  std::size_t chunkBytes_;
  bool fileDone_ = false;
  bool ioError_ = false;
};

}  // namespace ofl::gds

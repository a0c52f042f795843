#include "gds/byte_source.hpp"

#include <algorithm>
#include <cstring>

namespace ofl::gds {

ByteSource::ByteSource(const std::string& path)
    : ByteSource(path, Options{}) {}

ByteSource::ByteSource(const std::string& path, const Options& options)
    : chunkBytes_(std::max<std::size_t>(options.chunkBytes, 1)) {
  file_ = std::fopen(path.c_str(), "rb");
}

ByteSource::~ByteSource() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t ByteSource::refill(std::size_t n) {
  if (file_ == nullptr || fileDone_) return available();

  // Slide the unconsumed tail to the front so the buffer never grows past
  // max(chunk, largest single request).
  if (pos_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  while (buffer_.size() < n && !fileDone_) {
    const std::size_t want = std::max(chunkBytes_, n - buffer_.size());
    const std::size_t old = buffer_.size();
    buffer_.resize(old + want);
    const std::size_t got = std::fread(buffer_.data() + old, 1, want, file_);
    buffer_.resize(old + got);
    if (got < want) {
      fileDone_ = true;
      ioError_ = std::ferror(file_) != 0;
    }
  }
  return available();
}

}  // namespace ofl::gds

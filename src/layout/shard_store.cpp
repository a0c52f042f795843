#include "layout/shard_store.hpp"

#include <algorithm>
#include <cstdio>

namespace ofl::layout {

namespace {
// Spill granularity when replaying a file: 4096 rects = 128 KiB.
constexpr std::size_t kReadChunkRects = 4096;
}  // namespace

ShardStore::ShardStore(const Options& options) : options_(options) {
  // Move-assign a temporary: GCC 12 flags operator=(const char*) here with
  // a false -Wrestrict.
  if (options_.spillDir.empty()) options_.spillDir = std::string(".");
}

ShardStore::~ShardStore() {
  for (Spool& s : spools_) {
    if (!s.path.empty()) std::remove(s.path.c_str());
  }
}

ShardStore::SpoolId ShardStore::createSpool() {
  spools_.emplace_back();
  return spools_.size() - 1;
}

void ShardStore::append(SpoolId id, const geom::Rect& r) {
  Spool& s = spools_[id];
  s.mem.push_back(r);
  ++s.total;
  memoryBytes_ += sizeof(geom::Rect);
  maybeSpill();
}

void ShardStore::maybeSpill() {
  if (memoryBytes_ <= options_.memBudgetBytes) return;
  ++spillEvents_;
  for (Spool& s : spools_) {
    if (!s.mem.empty() && !s.released) spill(s);
  }
}

void ShardStore::spill(Spool& s) {
  if (s.path.empty()) {
    s.path = options_.spillDir + "/ofl_spool_" + std::to_string(fileSerial_++) +
             "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
             ".bin";
  }
  std::FILE* f = std::fopen(s.path.c_str(), "ab");
  if (f == nullptr) {
    ioError_ = true;
    return;
  }
  const std::size_t written =
      std::fwrite(s.mem.data(), sizeof(geom::Rect), s.mem.size(), f);
  if (written != s.mem.size() || std::fclose(f) != 0) ioError_ = true;
  s.onDisk += written;
  spilledBytes_ += written * sizeof(geom::Rect);
  memoryBytes_ -= s.mem.size() * sizeof(geom::Rect);
  s.mem.clear();
  s.mem.shrink_to_fit();
}

ShardStore::Reader::Reader(Reader&& other) noexcept
    : store_(other.store_),
      id_(other.id_),
      file_(other.file_),
      pos_(other.pos_),
      fileOffset_(other.fileOffset_),
      chunk_(std::move(other.chunk_)),
      chunkPos_(other.chunkPos_) {
  other.file_ = nullptr;
}

ShardStore::Reader::~Reader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ShardStore::Reader::next(geom::Rect& out) {
  if (chunkPos_ < chunk_.size()) {
    out = chunk_[chunkPos_++];
    ++pos_;
    return true;
  }
  const Spool& s = store_->spools_[id_];
  if (s.released) return false;
  if (pos_ < s.onDisk) {
    // A spill since the last chunk may have moved unread rects from memory
    // to the file (and the file may not have existed yet), so the file
    // position is re-derived from pos_ rather than trusted.
    if (file_ == nullptr) {
      file_ = std::fopen(s.path.c_str(), "rb");
      if (file_ == nullptr) {
        store_->ioError_ = true;
        return false;
      }
      fileOffset_ = 0;
    }
    if (fileOffset_ != pos_ &&
        std::fseek(file_, static_cast<long>(pos_ * sizeof(geom::Rect)),
                   SEEK_SET) != 0) {
      store_->ioError_ = true;
      return false;
    }
    std::clearerr(file_);  // the file may have grown since a short read
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(s.onDisk - pos_, kReadChunkRects));
    chunk_.resize(want);
    const std::size_t got =
        std::fread(chunk_.data(), sizeof(geom::Rect), want, file_);
    chunk_.resize(got);
    chunkPos_ = 0;
    fileOffset_ = pos_ + got;
    if (got < want) store_->ioError_ = true;
    if (got == 0) return false;
    out = chunk_[chunkPos_++];
    ++pos_;
    return true;
  }
  const std::uint64_t memPos = pos_ - s.onDisk;
  if (memPos >= s.mem.size()) return false;
  out = s.mem[static_cast<std::size_t>(memPos)];
  ++pos_;
  return true;
}

ShardStore::Reader ShardStore::read(SpoolId id) { return Reader(this, id); }

void ShardStore::readAll(SpoolId id, std::vector<geom::Rect>& out) {
  const Spool& s = spools_[id];
  out.resize(static_cast<std::size_t>(s.onDisk));
  if (s.onDisk > 0) {
    std::FILE* f = std::fopen(s.path.c_str(), "rb");
    if (f == nullptr ||
        std::fread(out.data(), sizeof(geom::Rect), out.size(), f) !=
            out.size()) {
      ioError_ = true;
    }
    if (f != nullptr) std::fclose(f);
  }
  out.insert(out.end(), s.mem.begin(), s.mem.end());
}

std::uint64_t ShardStore::count(SpoolId id) const { return spools_[id].total; }

void ShardStore::release(SpoolId id) {
  Spool& s = spools_[id];
  if (s.released) return;
  memoryBytes_ -= s.mem.size() * sizeof(geom::Rect);
  s.mem.clear();
  s.mem.shrink_to_fit();
  if (!s.path.empty()) {
    std::remove(s.path.c_str());
    s.path.clear();
  }
  s.onDisk = 0;
  s.released = true;
}

}  // namespace ofl::layout

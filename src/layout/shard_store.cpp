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

ShardStore::Reader::Reader(ShardStore* store, SpoolId id)
    : store_(store), id_(id) {
  const Spool& s = store_->spools_[id];
  remainingOnDisk_ = s.onDisk;
  if (remainingOnDisk_ > 0) {
    file_ = std::fopen(s.path.c_str(), "rb");
    if (file_ == nullptr) {
      store_->ioError_ = true;
      done_ = true;
    }
  }
}

ShardStore::Reader::Reader(Reader&& other) noexcept
    : store_(other.store_),
      id_(other.id_),
      file_(other.file_),
      remainingOnDisk_(other.remainingOnDisk_),
      memPos_(other.memPos_),
      chunk_(std::move(other.chunk_)),
      chunkPos_(other.chunkPos_),
      done_(other.done_) {
  other.file_ = nullptr;
  other.done_ = true;
}

ShardStore::Reader::~Reader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ShardStore::Reader::next(geom::Rect& out) {
  if (done_) return false;
  if (chunkPos_ < chunk_.size()) {
    out = chunk_[chunkPos_++];
    return true;
  }
  if (remainingOnDisk_ > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remainingOnDisk_, kReadChunkRects));
    chunk_.resize(want);
    const std::size_t got =
        std::fread(chunk_.data(), sizeof(geom::Rect), want, file_);
    chunk_.resize(got);
    chunkPos_ = 0;
    remainingOnDisk_ -= got;
    if (got < want) {
      store_->ioError_ = true;
      remainingOnDisk_ = 0;
    }
    if (got > 0) {
      out = chunk_[chunkPos_++];
      return true;
    }
  }
  const Spool& s = store_->spools_[id_];
  if (memPos_ < s.mem.size()) {
    out = s.mem[memPos_++];
    return true;
  }
  done_ = true;
  return false;
}

ShardStore::Reader ShardStore::read(SpoolId id) { return Reader(this, id); }

void ShardStore::forEach(SpoolId id,
                         const std::function<void(const geom::Rect&)>& fn) {
  Reader r = read(id);
  geom::Rect rect;
  while (r.next(rect)) fn(rect);
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

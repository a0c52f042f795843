#include "serve/persistent_cache.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace ofl::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'O', 'F', 'L', 'C', 'A', 'C', 'H', '1'};
constexpr std::uint32_t kVersion = 1;
// magic + version + key + payloadSize + payloadHash
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;

void putBytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}
void putU32(std::string& out, std::uint32_t v) { putBytes(out, &v, sizeof(v)); }
void putU64(std::string& out, std::uint64_t v) { putBytes(out, &v, sizeof(v)); }
void putI64(std::string& out, std::int64_t v) { putBytes(out, &v, sizeof(v)); }
void putF64(std::string& out, double v) { putBytes(out, &v, sizeof(v)); }

/// Bounds-checked sequential reader over a payload buffer.
class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}
  bool read(void* out, std::size_t n) {
    if (pos_ + n > buf_.size()) return false;
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  bool u32(std::uint32_t* v) { return read(v, sizeof(*v)); }
  bool u64(std::uint64_t* v) { return read(v, sizeof(*v)); }
  bool i64(std::int64_t* v) { return read(v, sizeof(*v)); }
  bool f64(double* v) { return read(v, sizeof(*v)); }
  bool atEnd() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

std::string headerFor(std::uint64_t key, const std::string& payload) {
  std::string h;
  h.reserve(kHeaderBytes);
  putBytes(h, kMagic, sizeof(kMagic));
  putU32(h, kVersion);
  putU64(h, key);
  putU64(h, payload.size());
  putU64(h, fnv1a64(payload.data(), payload.size()));
  return h;
}

bool readFileBytes(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(out->data(), size);
  return static_cast<bool>(in);
}

}  // namespace

std::string PersistentCache::serialize(const service::CachedFill& entry) {
  std::string out;
  const fill::FillReport& rep = entry.report;
  putF64(out, rep.planningSeconds);
  putF64(out, rep.candidateSeconds);
  putF64(out, rep.sizingSeconds);
  putF64(out, rep.totalSeconds);
  putU64(out, rep.candidateCount);
  putU64(out, rep.fillCount);
  putU64(out, rep.ecoWindowsSkipped);
  putU32(out, static_cast<std::uint32_t>(rep.threadsUsed));
  putU32(out, static_cast<std::uint32_t>(rep.layerTargets.size()));
  for (const double t : rep.layerTargets) putF64(out, t);
  const auto fillsPerLayer = entry.fillsPerLayer();
  putU32(out, static_cast<std::uint32_t>(fillsPerLayer.size()));
  for (const auto& fills : fillsPerLayer) {
    putU64(out, fills.size());
    for (const geom::Rect& f : fills) {
      putI64(out, f.xl);
      putI64(out, f.yl);
      putI64(out, f.xh);
      putI64(out, f.yh);
    }
  }
  return out;
}

std::shared_ptr<const service::CachedFill> PersistentCache::deserialize(
    const std::string& payload) {
  ByteReader in(payload);
  fill::FillReport rep;
  std::uint32_t threads = 0, targets = 0, layers = 0;
  if (!in.f64(&rep.planningSeconds) || !in.f64(&rep.candidateSeconds) ||
      !in.f64(&rep.sizingSeconds) || !in.f64(&rep.totalSeconds)) {
    return nullptr;
  }
  std::uint64_t candidateCount = 0, fillCount = 0, ecoSkipped = 0;
  if (!in.u64(&candidateCount) || !in.u64(&fillCount) ||
      !in.u64(&ecoSkipped) || !in.u32(&threads) || !in.u32(&targets)) {
    return nullptr;
  }
  rep.candidateCount = candidateCount;
  rep.fillCount = fillCount;
  rep.ecoWindowsSkipped = ecoSkipped;
  rep.threadsUsed = static_cast<int>(threads);
  // Sanity bounds: a corrupt count must not drive a giant allocation.
  if (targets > 4096) return nullptr;
  rep.layerTargets.resize(targets);
  for (double& t : rep.layerTargets) {
    if (!in.f64(&t)) return nullptr;
  }
  if (!in.u32(&layers) || layers > 4096) return nullptr;
  std::vector<std::vector<geom::Rect>> fillsPerLayer(layers);
  for (auto& fills : fillsPerLayer) {
    std::uint64_t count = 0;
    if (!in.u64(&count)) return nullptr;
    // Remaining payload must plausibly hold `count` rects.
    if (count > (payload.size() / (4 * sizeof(std::int64_t))) + 1) {
      return nullptr;
    }
    fills.resize(count);
    for (geom::Rect& f : fills) {
      if (!in.i64(&f.xl) || !in.i64(&f.yl) || !in.i64(&f.xh) ||
          !in.i64(&f.yh)) {
        return nullptr;
      }
    }
  }
  if (!in.atEnd()) return nullptr;  // trailing garbage
  return service::CachedFill::fromFills(fillsPerLayer, rep);
}

PersistentCache::PersistentCache(std::string dir, std::size_t byteBudget)
    : dir_(std::move(dir)), budget_(byteBudget) {
  counters_.byteBudget = byteBudget;
  if (budget_ == 0) {
    ok_ = true;  // disabled, never touches the filesystem
    return;
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec)) {
    error_ = "cannot create cache directory " + dir_ + ": " + ec.message();
    return;
  }
  ok_ = true;
  std::lock_guard<std::mutex> lock(mutex_);
  scanLocked();
}

std::string PersistentCache::pathFor(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.ofc",
                static_cast<unsigned long long>(key));
  return (fs::path(dir_) / name).string();
}

void PersistentCache::scanLocked() {
  struct Found {
    fs::file_time_type mtime;
    std::uint64_t key;
    std::size_t bytes;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const fs::path& p = de.path();
    if (p.extension() != ".ofc") continue;
    std::uint64_t key = 0;
    if (std::sscanf(p.stem().string().c_str(), "%llx",
                    reinterpret_cast<unsigned long long*>(&key)) != 1) {
      continue;
    }
    const std::size_t size = static_cast<std::size_t>(de.file_size(ec));
    if (ec || size < kHeaderBytes) {
      // Too short to even hold a header: quarantine immediately.
      quarantineLocked(key, "undersized entry file");
      continue;
    }
    found.push_back({de.last_write_time(ec), key, size});
  }
  // Oldest first, so use-counter order reproduces the on-disk LRU.
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.mtime < b.mtime; });
  for (const Found& f : found) {
    index_[f.key] = {f.bytes, ++useClock_};
    bytesUsed_ += f.bytes;
  }
  counters_.entries = index_.size();
  counters_.bytesUsed = bytesUsed_;
  evictOverBudgetLocked();
}

void PersistentCache::quarantineLocked(std::uint64_t key,
                                       const std::string& reason) {
  const fs::path src = pathFor(key);
  std::error_code ec;
  const fs::path qdir = fs::path(dir_) / "quarantine";
  fs::create_directories(qdir, ec);
  fs::rename(src, qdir / src.filename(), ec);
  if (ec) fs::remove(src, ec);  // rename failed: at least drop it
  ++counters_.quarantined;
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("cache.quarantined").add();
  }
  logFields(LogLevel::kWarn, "cache.quarantine",
            {{"key", std::to_string(key)}, {"reason", reason}});
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytesUsed_ -= std::min(bytesUsed_, it->second.fileBytes);
    index_.erase(it);
  }
  counters_.entries = index_.size();
  counters_.bytesUsed = bytesUsed_;
}

std::shared_ptr<const service::CachedFill> PersistentCache::load(
    std::uint64_t key) {
  if (budget_ == 0 || !ok_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.loads;
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;

  std::string bytes;
  if (!readFileBytes(pathFor(key), &bytes) || bytes.size() < kHeaderBytes) {
    quarantineLocked(key, "unreadable entry");
    return nullptr;
  }
  // Validate the header field by field, then the payload hash.
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    quarantineLocked(key, "bad magic");
    return nullptr;
  }
  std::uint32_t version = 0;
  std::uint64_t storedKey = 0, payloadSize = 0, payloadHash = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&storedKey, bytes.data() + 12, sizeof(storedKey));
  std::memcpy(&payloadSize, bytes.data() + 20, sizeof(payloadSize));
  std::memcpy(&payloadHash, bytes.data() + 28, sizeof(payloadHash));
  if (version != kVersion || storedKey != key ||
      bytes.size() != kHeaderBytes + payloadSize) {
    quarantineLocked(key, "header mismatch");
    return nullptr;
  }
  const std::string payload = bytes.substr(kHeaderBytes);
  if (fnv1a64(payload.data(), payload.size()) != payloadHash) {
    quarantineLocked(key, "payload hash mismatch");
    return nullptr;
  }
  const auto entry = deserialize(payload);
  if (entry == nullptr) {
    quarantineLocked(key, "undecodable payload");
    return nullptr;
  }
  // Refresh recency in memory and on disk (mtime survives restarts).
  it->second.lastUse = ++useClock_;
  std::error_code ec;
  fs::last_write_time(pathFor(key), fs::file_time_type::clock::now(), ec);
  ++counters_.loadHits;
  return entry;
}

void PersistentCache::store(std::uint64_t key,
                            const service::CachedFill& entry) {
  if (budget_ == 0 || !ok_) return;
  const std::string payload = serialize(entry);
  const std::string header = headerFor(key, payload);
  if (header.size() + payload.size() > budget_) return;  // oversized

  std::lock_guard<std::mutex> lock(mutex_);
  const fs::path path = pathFor(key);
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);  // atomic replace: no torn entries on crash
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  const std::size_t fileBytes = header.size() + payload.size();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytesUsed_ -= std::min(bytesUsed_, it->second.fileBytes);
  }
  index_[key] = {fileBytes, ++useClock_};
  bytesUsed_ += fileBytes;
  ++counters_.stores;
  counters_.entries = index_.size();
  counters_.bytesUsed = bytesUsed_;
  evictOverBudgetLocked();
}

void PersistentCache::evictOverBudgetLocked() {
  while (bytesUsed_ > budget_ && index_.size() > 1) {
    auto victim = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->second.lastUse < victim->second.lastUse) victim = it;
    }
    std::error_code ec;
    fs::remove(pathFor(victim->first), ec);
    bytesUsed_ -= std::min(bytesUsed_, victim->second.fileBytes);
    index_.erase(victim);
    ++counters_.evictions;
  }
  counters_.entries = index_.size();
  counters_.bytesUsed = bytesUsed_;
}

PersistentCache::Counters PersistentCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace ofl::serve

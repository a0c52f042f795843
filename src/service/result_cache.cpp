#include "service/result_cache.hpp"

#include "gds/oasis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ofl::service {

namespace {

// Live cache counters in the metrics registry (references are stable for
// the process lifetime) — the same numbers ServiceStats reports, but
// usable mid-run by the periodic batch metrics dump and Prometheus
// scrapes.
void recordProbe(bool hit) {
  if (!obs::metricsEnabled()) return;
  static obs::Counter& hits =
      obs::MetricsRegistry::instance().counter("cache.hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::instance().counter("cache.misses");
  (hit ? hits : misses).add();
}

// Zigzag varint of the wrapped 64-bit difference a - b.
void putDelta(std::vector<std::uint8_t>& out, geom::Coord a, geom::Coord b) {
  gds::putVarInt(out, static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                                static_cast<std::uint64_t>(b)));
}

// b + the delta at `p` (the inverse of putDelta), advancing `p`. Packed
// layers are only ever written by pack(), so the varint is always
// complete: the loop needs no bounds checks.
geom::Coord getDelta(const std::uint8_t*& p, geom::Coord b) {
  std::uint64_t zigzag = 0;
  int shift = 0;
  std::uint8_t byte = 0;
  do {
    byte = *p++;
    zigzag |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    shift += 7;
  } while ((byte & 0x80) != 0);
  const std::uint64_t delta = (zigzag >> 1) ^ (0 - (zigzag & 1));
  return static_cast<geom::Coord>(static_cast<std::uint64_t>(b) + delta);
}

CachedFill::PackedLayer pack(const std::vector<geom::Rect>& fills) {
  CachedFill::PackedLayer packed;
  packed.count = fills.size();
  geom::Coord x = 0, y = 0;
  for (const geom::Rect& f : fills) {
    putDelta(packed.bytes, f.xl, x);
    putDelta(packed.bytes, f.yl, y);
    putDelta(packed.bytes, f.xh, f.xl);
    putDelta(packed.bytes, f.yh, f.yl);
    x = f.xl;
    y = f.yl;
  }
  packed.bytes.shrink_to_fit();
  return packed;
}

void unpack(const CachedFill::PackedLayer& packed,
            std::vector<geom::Rect>& fills) {
  fills.resize(packed.count);
  const std::uint8_t* p = packed.bytes.data();
  geom::Coord x = 0, y = 0;
  for (geom::Rect& f : fills) {
    f.xl = x = getDelta(p, x);
    f.yl = y = getDelta(p, y);
    f.xh = getDelta(p, f.xl);
    f.yh = getDelta(p, f.yl);
  }
}

std::size_t footprint(const std::vector<CachedFill::PackedLayer>& layers) {
  std::size_t bytes = 256;  // fixed bookkeeping overhead per entry
  for (const auto& layer : layers) bytes += 64 + layer.bytes.size();
  return bytes;
}

}  // namespace

std::shared_ptr<const CachedFill> CachedFill::capture(
    const layout::Layout& chip, const fill::FillReport& report) {
  auto entry = std::make_shared<CachedFill>();
  entry->report = report;
  for (int l = 0; l < chip.numLayers(); ++l) {
    entry->layers.push_back(pack(chip.layer(l).fills));
  }
  entry->bytes = footprint(entry->layers);
  return entry;
}

std::shared_ptr<const CachedFill> CachedFill::fromFills(
    const std::vector<std::vector<geom::Rect>>& fillsPerLayer,
    const fill::FillReport& report) {
  auto entry = std::make_shared<CachedFill>();
  entry->report = report;
  for (const auto& fills : fillsPerLayer) entry->layers.push_back(pack(fills));
  entry->bytes = footprint(entry->layers);
  return entry;
}

std::vector<std::vector<geom::Rect>> CachedFill::fillsPerLayer() const {
  std::vector<std::vector<geom::Rect>> out(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) unpack(layers[l], out[l]);
  return out;
}

void CachedFill::decodeLayer(std::size_t l,
                             std::vector<geom::Rect>& out) const {
  unpack(layers[l], out);
}

void CachedFill::applyTo(layout::Layout& chip) const {
  for (int l = 0; l < chip.numLayers(); ++l) {
    decodeLayer(static_cast<std::size_t>(l), chip.layer(l).fills);
  }
}

ResultCache::ResultCache(std::size_t byteBudget, ResultStore* store)
    : budget_(byteBudget), store_(byteBudget > 0 ? store : nullptr) {
  counters_.byteBudget = byteBudget;
}

std::shared_ptr<const CachedFill> ResultCache::find(std::uint64_t key) {
  obs::ScopedSpan span("cache.find", "cache");
  bool hit = false;
  std::shared_ptr<const CachedFill> result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      hit = true;
      ++counters_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      result = it->second->entry;
    }
  }
  if (!hit && store_ != nullptr) {
    // Persistent probe outside the mutex: disk I/O must not serialize
    // concurrent in-memory probes. Two racing misses may both load the
    // same entry; the second insert replaces the first, never wrong.
    result = store_->load(key);
    std::lock_guard<std::mutex> lock(mutex_);
    if (result != nullptr) {
      hit = true;
      ++counters_.hits;
      ++counters_.persistentHits;
      if (obs::metricsEnabled()) {
        obs::MetricsRegistry::instance()
            .counter("cache.persistent_hits")
            .add();
      }
    } else {
      ++counters_.persistentMisses;
    }
  }
  if (!hit) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
  }
  recordProbe(hit);
  obs::instant(hit ? "cache.hit" : "cache.miss", "cache", {});
  if (hit && result != nullptr) {
    // Promote a store hit into the in-memory LRU so repeats stay in RAM.
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.find(key) == index_.end() && result->bytes <= budget_) {
      pushFrontLocked(key, result);
      evictOverBudgetLocked();
    }
  }
  return result;
}

void ResultCache::insert(std::uint64_t key,
                         std::shared_ptr<const CachedFill> entry) {
  obs::ScopedSpan span("cache.insert", "cache");
  if (store_ != nullptr && entry->bytes <= budget_) {
    store_->store(key, *entry);  // write-through, outside the mutex
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->bytes > budget_) {  // also covers budget_ == 0 (disabled)
    ++counters_.oversized;
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) eraseLocked(it->second);
  pushFrontLocked(key, std::move(entry));
  ++counters_.insertions;
  evictOverBudgetLocked();
}

std::optional<ResultCache::AliasHit> ResultCache::findAlias(
    std::uint64_t rawKey, std::span<const std::uint8_t> input) {
  obs::ScopedSpan span("cache.find_alias", "cache");
  AliasHit found;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = aliases_.find(rawKey);
    if (it == aliases_.end()) return std::nullopt;
    found.key = it->second.key;
    found.splice = it->second.splice;
    found.entry = index_.at(found.key)->entry;  // aliases go with it
  }
  // Validated outside the mutex: it reads the whole splice.
  if (!validSplice(input, *found.splice)) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.hits;
    // The entry may have been evicted meanwhile; the held copy still
    // answers this request.
    const auto it = index_.find(found.key);
    if (it != index_.end()) lru_.splice(lru_.begin(), lru_, it->second);
  }
  recordProbe(true);
  obs::instant("cache.hit", "cache", {});
  return found;
}

void ResultCache::addAlias(std::uint64_t rawKey, std::uint64_t key,
                           WireSplice splice) {
  const std::size_t bytes = splice.footprint();
  auto shared = std::make_shared<const WireSplice>(std::move(splice));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || aliases_.count(rawKey) != 0 ||
      it->second->entry->layers.size() != shared->layers.size() ||
      it->second->bytes + bytes > budget_) {
    return;
  }
  LruEntry& node = *it->second;
  node.aliases.push_back(rawKey);
  node.bytes += bytes;
  counters_.bytesUsed += bytes;
  aliases_.emplace(rawKey, Alias{key, std::move(shared)});
  counters_.aliases = aliases_.size();
  evictOverBudgetLocked();
}

void ResultCache::pushFrontLocked(std::uint64_t key,
                                  std::shared_ptr<const CachedFill> entry) {
  const std::size_t bytes = entry->bytes;
  lru_.push_front(LruEntry{key, std::move(entry), {}, bytes});
  index_[key] = lru_.begin();
  counters_.bytesUsed += bytes;
  counters_.entries = lru_.size();
}

void ResultCache::eraseLocked(std::list<LruEntry>::iterator it) {
  for (const std::uint64_t rawKey : it->aliases) aliases_.erase(rawKey);
  counters_.bytesUsed -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
  counters_.entries = lru_.size();
  counters_.aliases = aliases_.size();
}

void ResultCache::evictOverBudgetLocked() {
  while (counters_.bytesUsed > budget_ && lru_.size() > 1) {
    eraseLocked(std::prev(lru_.end()));
    ++counters_.evictions;
    if (obs::metricsEnabled()) {
      obs::MetricsRegistry::instance().counter("cache.evictions").add();
    }
  }
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.gauge("cache.bytes_used").set(static_cast<double>(counters_.bytesUsed));
    reg.gauge("cache.entries").set(static_cast<double>(counters_.entries));
  }
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace ofl::service

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

// b + the delta at `pos` (the inverse of putDelta). Packed layers are only
// ever written by pack(), so the varint is always complete.
geom::Coord getDelta(const std::vector<std::uint8_t>& bytes, std::size_t& pos,
                     geom::Coord b) {
  return static_cast<geom::Coord>(
      static_cast<std::uint64_t>(b) +
      static_cast<std::uint64_t>(*gds::getVarInt(bytes, pos)));
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
  fills.clear();
  fills.reserve(packed.count);
  std::size_t pos = 0;
  geom::Coord x = 0, y = 0;
  for (std::size_t i = 0; i < packed.count; ++i) {
    geom::Rect& f = fills.emplace_back();
    f.xl = x = getDelta(packed.bytes, pos, x);
    f.yl = y = getDelta(packed.bytes, pos, y);
    f.xh = getDelta(packed.bytes, pos, f.xl);
    f.yh = getDelta(packed.bytes, pos, f.yl);
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

void CachedFill::applyTo(layout::Layout& chip) const {
  for (int l = 0; l < chip.numLayers(); ++l) {
    unpack(layers[static_cast<std::size_t>(l)], chip.layer(l).fills);
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
      result = it->second->second;
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
      lru_.emplace_front(key, result);
      index_[key] = lru_.begin();
      counters_.bytesUsed += result->bytes;
      counters_.entries = lru_.size();
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
  if (it != index_.end()) {
    counters_.bytesUsed -= it->second->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  counters_.bytesUsed += lru_.front().second->bytes;
  ++counters_.insertions;
  counters_.entries = lru_.size();
  evictOverBudgetLocked();
}

void ResultCache::evictOverBudgetLocked() {
  while (counters_.bytesUsed > budget_ && lru_.size() > 1) {
    const LruEntry& victim = lru_.back();
    counters_.bytesUsed -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++counters_.evictions;
    if (obs::metricsEnabled()) {
      obs::MetricsRegistry::instance().counter("cache.evictions").add();
    }
  }
  counters_.entries = lru_.size();
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

// LRU result cache for fill solutions, keyed by content hash.
//
// Entries hold the per-layer fill rectangles a run produced (plus its
// FillReport) and are charged an approximate byte cost; the cache evicts
// least-recently-used entries whenever the total exceeds the byte budget.
// Thread-safe: concurrent jobs probe and insert under one mutex (the
// critical sections are pointer moves, never geometry copies). Two
// concurrent misses on the same key may both compute; the second insert
// replaces the first — wasted work, never wrong results.
//
// An entry can also be reached through aliases: raw keys of the input
// files it was computed from (service::FillService hashes a file's bytes
// before parsing it), each with the WireSplice that writes a hit on that
// file without a parse. Aliases live in memory only and go with their
// entry: evicting or replacing it drops them.
//
// An optional second-level ResultStore (serve/persistent_cache implements
// it over a directory of integrity-hashed files) makes hits survive
// process restarts: a memory miss probes the store before reporting a
// miss, and every insert writes through. The store is only consulted
// outside the cache mutex — persistent I/O never blocks concurrent
// in-memory probes.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"
#include "service/splice.hpp"

namespace ofl::service {

/// A cached fill solution. Immutable once inserted (shared_ptr<const>), so
/// readers replay it without holding the cache lock.
///
/// Fills are held packed, because a long-running daemon keeps every miss
/// and ECO result it served: per layer, zigzag LEB128 varints of each
/// fill's xl and yl as deltas from the previous fill's, then its width and
/// height. That is about 7 bytes a fill where a Rect takes 32. The
/// arithmetic wraps, so every 64-bit coordinate round-trips.
struct CachedFill {
  struct PackedLayer {
    std::size_t count = 0;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<PackedLayer> layers;
  fill::FillReport report;
  std::size_t bytes = 0;  // footprint charged to the cache: packed + overhead

  /// Snapshots `chip`'s fills (after an engine run).
  static std::shared_ptr<const CachedFill> capture(
      const layout::Layout& chip, const fill::FillReport& report);

  /// An entry holding the given per-layer fills (the persistent cache's
  /// load path).
  static std::shared_ptr<const CachedFill> fromFills(
      const std::vector<std::vector<geom::Rect>>& fillsPerLayer,
      const fill::FillReport& report);

  /// Decodes every layer's fills, in capture order.
  std::vector<std::vector<geom::Rect>> fillsPerLayer() const;
  /// Decodes layer `l`'s fills into `out` (replacing its contents).
  void decodeLayer(std::size_t l, std::vector<geom::Rect>& out) const;

  /// Replays the cached solution into `chip` (which must have the same
  /// layer count — guaranteed by key equality). Replaces existing fills.
  void applyTo(layout::Layout& chip) const;
};

/// Second-level result store (persistent cache). Implementations must be
/// thread-safe; load() returns nullptr on a miss or an invalid entry.
class ResultStore {
 public:
  virtual ~ResultStore() = default;
  virtual std::shared_ptr<const CachedFill> load(std::uint64_t key) = 0;
  virtual void store(std::uint64_t key, const CachedFill& entry) = 0;
};

class ResultCache {
 public:
  /// `byteBudget` 0 disables the cache: every probe misses, inserts are
  /// dropped. (That is `openfill batch --cache-mb 0`.) `store` (optional,
  /// caller-owned, must outlive the cache) backs misses and inserts with
  /// a persistent second level; a disabled cache never touches it.
  explicit ResultCache(std::size_t byteBudget, ResultStore* store = nullptr);

  /// False for a zero budget: every probe misses.
  bool enabled() const { return budget_ > 0; }

  /// Probe; counts a hit (and refreshes LRU position) or a miss. A memory
  /// miss falls through to the persistent store when one is attached; a
  /// store hit is promoted into the in-memory LRU and counted in both
  /// `hits` and `persistentHits`.
  std::shared_ptr<const CachedFill> find(std::uint64_t key);

  /// Inserts or replaces. Entries larger than the whole budget are
  /// dropped (counted in `oversized`), never inserted-then-evicted.
  void insert(std::uint64_t key, std::shared_ptr<const CachedFill> entry);

  /// An entry found through an alias, with the alias's splice.
  struct AliasHit {
    std::uint64_t key = 0;  // the entry's own key
    std::shared_ptr<const CachedFill> entry;
    std::shared_ptr<const WireSplice> splice;
  };

  /// Raw-key probe: the entry aliased by `rawKey` when its splice is
  /// validSplice for `input`. Counts a hit (and refreshes the entry's LRU
  /// position) only when it returns one; a miss counts nothing and never
  /// probes the persistent store, so the caller's follow-up find() is the
  /// request's one counted probe.
  std::optional<AliasHit> findAlias(std::uint64_t rawKey,
                                    std::span<const std::uint8_t> input);

  /// Makes `rawKey` an alias of resident entry `key`. The alias is
  /// memory-only, charged to the byte budget with its entry and evicted
  /// with it; it is dropped when `key` is not resident, when the entry's
  /// layer count differs from the splice's, or when the entry and its
  /// aliases would exceed the whole budget.
  void addAlias(std::uint64_t rawKey, std::uint64_t key, WireSplice splice);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t oversized = 0;
    /// Hits served from the persistent store (subset of `hits`); misses
    /// that probed the store and found nothing (subset of `misses`).
    std::uint64_t persistentHits = 0;
    std::uint64_t persistentMisses = 0;
    std::size_t entries = 0;
    std::size_t aliases = 0;  // resident aliases (findAlias/addAlias)
    std::size_t bytesUsed = 0;  // entries and their aliases
    std::size_t byteBudget = 0;
  };
  Counters counters() const;

 private:
  void evictOverBudgetLocked();

  const std::size_t budget_;
  ResultStore* const store_;
  mutable std::mutex mutex_;
  struct LruEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const CachedFill> entry;
    std::vector<std::uint64_t> aliases;  // raw keys naming this entry
    std::size_t bytes = 0;               // entry + aliases footprint
  };
  struct Alias {
    std::uint64_t key = 0;
    std::shared_ptr<const WireSplice> splice;
  };
  /// Puts a fresh node for `entry` at the front; mutex_ must be held.
  void pushFrontLocked(std::uint64_t key,
                       std::shared_ptr<const CachedFill> entry);
  /// Unlinks the node at `it` and its aliases; mutex_ must be held.
  void eraseLocked(std::list<LruEntry>::iterator it);

  // Front = most recently used. The maps index into the list.
  std::list<LruEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<LruEntry>::iterator> index_;
  std::unordered_map<std::uint64_t, Alias> aliases_;
  Counters counters_;
};

}  // namespace ofl::service

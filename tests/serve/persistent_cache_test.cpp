// Persistent result cache tests: restart round-trips, integrity-hash
// rejection of corrupted entries, on-disk LRU budget enforcement, and
// concurrent access from multiple jobs.
#include "serve/persistent_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "service/result_cache.hpp"

namespace ofl::serve {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("ofl_pcache_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// A synthetic cached solution with recognizable geometry.
std::shared_ptr<const service::CachedFill> makeEntry(int seed,
                                                     int rectsPerLayer = 3) {
  layout::Layout chip(geom::Rect{0, 0, 10000, 10000}, 2);
  for (int l = 0; l < 2; ++l) {
    for (int i = 0; i < rectsPerLayer; ++i) {
      const geom::Coord base = seed * 100 + i * 20 + l;
      chip.layer(l).fills.push_back(
          geom::Rect{base, base + 1, base + 10, base + 11});
    }
  }
  fill::FillReport report;
  report.totalSeconds = 0.5 + seed;
  report.fillCount = chip.fillCount();
  report.candidateCount = 2 * report.fillCount;
  report.threadsUsed = 3;
  report.layerTargets = {0.4, 0.45};
  return service::CachedFill::capture(chip, report);
}

std::string onlyFile(const std::string& dir) {
  std::string found;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      EXPECT_TRUE(found.empty()) << "expected a single file in " << dir;
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(PersistentCacheTest, SerializeDeserializeRoundTrips) {
  const auto entry = makeEntry(7);
  const std::string payload = PersistentCache::serialize(*entry);
  const auto back = PersistentCache::deserialize(payload);
  ASSERT_NE(nullptr, back);
  EXPECT_EQ(entry->fillsPerLayer(), back->fillsPerLayer());
  EXPECT_EQ(entry->bytes, back->bytes);
  EXPECT_DOUBLE_EQ(entry->report.totalSeconds, back->report.totalSeconds);
  EXPECT_EQ(entry->report.fillCount, back->report.fillCount);
  EXPECT_EQ(entry->report.threadsUsed, back->report.threadsUsed);
  EXPECT_EQ(entry->report.layerTargets, back->report.layerTargets);

  // Trailing garbage and truncation are both malformed.
  EXPECT_EQ(nullptr, PersistentCache::deserialize(payload + "x"));
  EXPECT_EQ(nullptr,
            PersistentCache::deserialize(payload.substr(0, payload.size() / 2)));
  EXPECT_EQ(nullptr, PersistentCache::deserialize(""));
}

TEST(PersistentCacheTest, EntriesSurviveReopen) {
  const std::string dir = freshDir("reopen");
  const auto entry = makeEntry(1);
  {
    PersistentCache cache(dir, 1 << 20);
    ASSERT_TRUE(cache.ok()) << cache.error();
    cache.store(0xabcdef12u, *entry);
    EXPECT_EQ(1u, cache.counters().stores);
  }
  // "Daemon restart": a fresh instance over the same directory.
  PersistentCache cache(dir, 1 << 20);
  ASSERT_TRUE(cache.ok()) << cache.error();
  EXPECT_EQ(1u, cache.counters().entries);
  const auto back = cache.load(0xabcdef12u);
  ASSERT_NE(nullptr, back);
  EXPECT_EQ(entry->fillsPerLayer(), back->fillsPerLayer());
  EXPECT_EQ(1u, cache.counters().loadHits);
  // Wrong key misses without touching the stored entry.
  EXPECT_EQ(nullptr, cache.load(0x12345u));
}

TEST(PersistentCacheTest, BitFlippedEntryQuarantinedNotServed) {
  const std::string dir = freshDir("bitflip");
  {
    PersistentCache cache(dir, 1 << 20);
    ASSERT_TRUE(cache.ok()) << cache.error();
    cache.store(42, *makeEntry(2));
  }
  // Flip one payload byte on disk.
  const std::string path = onlyFile(dir);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long long>(f.tellg());
    f.seekp(size - 5);
    char c = 0;
    f.seekg(size - 5);
    f.read(&c, 1);
    f.seekp(size - 5);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  PersistentCache cache(dir, 1 << 20);
  ASSERT_TRUE(cache.ok()) << cache.error();
  EXPECT_EQ(nullptr, cache.load(42));
  const auto c = cache.counters();
  EXPECT_EQ(1u, c.quarantined);
  EXPECT_EQ(0u, c.loadHits);
  EXPECT_EQ(0u, c.entries);
  // The corrupt file was moved aside, not deleted and not left in place.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine"));
  // A bit flip degrades to a miss forever, not just once.
  EXPECT_EQ(nullptr, cache.load(42));
}

TEST(PersistentCacheTest, LruEnforcesByteBudgetOnDisk) {
  const std::string dir = freshDir("lru");
  const auto entry = makeEntry(3);
  const std::size_t fileBytes = PersistentCache::serialize(*entry).size() + 36;
  // Budget for roughly three entries.
  PersistentCache cache(dir, 3 * fileBytes + fileBytes / 2);
  ASSERT_TRUE(cache.ok()) << cache.error();
  for (std::uint64_t key = 1; key <= 8; ++key) cache.store(key, *entry);
  const auto c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.bytesUsed, c.byteBudget);
  EXPECT_GE(c.entries, 1u);
  EXPECT_LT(c.entries, 8u);
  // The most recently stored key survived; the earliest ones were evicted.
  EXPECT_NE(nullptr, cache.load(8));
  EXPECT_EQ(nullptr, cache.load(1));
  // On-disk file count matches the index.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) ++files;
  }
  EXPECT_EQ(cache.counters().entries, files);
}

TEST(PersistentCacheTest, ZeroBudgetDisablesPersistence) {
  const std::string dir = freshDir("disabled");
  PersistentCache cache(dir, 0);
  ASSERT_TRUE(cache.ok()) << cache.error();
  cache.store(1, *makeEntry(4));
  EXPECT_EQ(nullptr, cache.load(1));
  EXPECT_EQ(0u, cache.counters().stores);
}

TEST(PersistentCacheTest, ConcurrentLoadsAndStoresStayConsistent) {
  const std::string dir = freshDir("concurrent");
  PersistentCache cache(dir, 8u << 20);
  ASSERT_TRUE(cache.ok()) << cache.error();
  constexpr int kThreads = 4;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto entry = makeEntry(t);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(i % 8);
        cache.store(key, *entry);
        if (cache.load(key) != nullptr) hits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every probe follows a store of the same key: all must hit (stores of
  // other payloads under the same key are still valid entries).
  EXPECT_EQ(kThreads * kOps, hits.load());
  EXPECT_EQ(8u, cache.counters().entries);
  EXPECT_EQ(0u, cache.counters().quarantined);
}

TEST(PersistentCacheTest, ResultCachePromotesStoreHitsAcrossRestart) {
  const std::string dir = freshDir("promote");
  const auto entry = makeEntry(5);
  {
    PersistentCache store(dir, 1 << 20);
    service::ResultCache cache(1 << 20, &store);
    cache.insert(99, entry);  // write-through
  }
  PersistentCache store(dir, 1 << 20);
  service::ResultCache cache(1 << 20, &store);
  // Memory-cold probe: served from disk, promoted, counted.
  const auto back = cache.find(99);
  ASSERT_NE(nullptr, back);
  EXPECT_EQ(entry->fillsPerLayer(), back->fillsPerLayer());
  auto c = cache.counters();
  EXPECT_EQ(1u, c.persistentHits);
  EXPECT_EQ(1u, c.hits);
  // Second probe is a pure memory hit — the store is not consulted again.
  EXPECT_NE(nullptr, cache.find(99));
  c = cache.counters();
  EXPECT_EQ(1u, c.persistentHits);
  EXPECT_EQ(2u, c.hits);
  EXPECT_EQ(1u, store.counters().loads);
}

}  // namespace
}  // namespace ofl::serve

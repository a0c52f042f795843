// layout::ShardStore: budgeted rect spools that spill to disk. Replay must
// return every rect in append order whatever mix of spill file and
// in-memory tail holds it, and an open Reader must survive spills that
// appends to other spools trigger (the sharded engine routes one spool
// into others of the same store).
#include "layout/shard_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace ofl::layout {
namespace {

using geom::Rect;

constexpr std::size_t kRectBytes = sizeof(Rect);

Rect rectNo(int k) { return {k, 2 * k, k + 3, 2 * k + 5}; }

class ShardStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ofl_shard_store_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A store that spills once more than `rects` rects are buffered.
  ShardStore::Options budgetOf(std::size_t rects) const {
    ShardStore::Options o;
    o.memBudgetBytes = rects * kRectBytes;
    o.spillDir = dir_.string();
    return o;
  }

  std::size_t spillFiles() const {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      n += e.is_regular_file() ? 1 : 0;
    }
    return n;
  }

  static std::vector<Rect> replay(ShardStore& store, ShardStore::SpoolId id) {
    std::vector<Rect> out;
    ShardStore::Reader in = store.read(id);
    Rect r;
    while (in.next(r)) out.push_back(r);
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(ShardStoreTest, ReplaysInAppendOrderAcrossSpillAndTail) {
  ShardStore store(budgetOf(4));
  const ShardStore::SpoolId id = store.createSpool();
  std::vector<Rect> appended;
  for (int k = 0; k < 23; ++k) {
    appended.push_back(rectNo(k));
    store.append(id, appended.back());
  }
  // Every fifth append overflows the 4-rect budget and flushes: 20 rects
  // on disk in 4 events, 3 in the in-memory tail.
  EXPECT_EQ(store.spillEvents(), 4u);
  EXPECT_EQ(store.spilledBytes(), 20 * kRectBytes);
  EXPECT_EQ(store.memoryBytes(), 3 * kRectBytes);
  EXPECT_EQ(store.count(id), 23u);
  EXPECT_EQ(replay(store, id), appended);
  std::vector<Rect> all{rectNo(99)};  // readAll replaces, not appends
  store.readAll(id, all);
  EXPECT_EQ(all, appended);
  EXPECT_FALSE(store.ioError());
}

TEST_F(ShardStoreTest, InMemorySpoolsNeverSpill) {
  ShardStore store(budgetOf(64));
  const ShardStore::SpoolId a = store.createSpool();
  const ShardStore::SpoolId b = store.createSpool();
  std::vector<Rect> inA, inB;
  for (int k = 0; k < 10; ++k) {
    inA.push_back(rectNo(k));
    inB.push_back(rectNo(100 + k));
    store.append(a, inA.back());
    store.append(b, inB.back());
  }
  EXPECT_EQ(store.spillEvents(), 0u);
  EXPECT_EQ(store.spilledBytes(), 0u);
  EXPECT_EQ(spillFiles(), 0u);
  EXPECT_EQ(replay(store, a), inA);
  EXPECT_EQ(replay(store, b), inB);
}

TEST_F(ShardStoreTest, ReleaseDropsMemoryAndSpillFile) {
  ShardStore store(budgetOf(4));
  const ShardStore::SpoolId a = store.createSpool();
  const ShardStore::SpoolId b = store.createSpool();
  for (int k = 0; k < 7; ++k) store.append(a, rectNo(k));
  store.append(b, rectNo(50));
  ASSERT_EQ(spillFiles(), 1u);  // a spilled once; b was still empty
  ASSERT_EQ(store.memoryBytes(), 3 * kRectBytes);

  store.release(a);
  EXPECT_EQ(spillFiles(), 0u);
  EXPECT_EQ(store.memoryBytes(), kRectBytes);
  EXPECT_TRUE(replay(store, a).empty());
  std::vector<Rect> all{rectNo(1)};
  store.readAll(a, all);
  EXPECT_TRUE(all.empty());
  EXPECT_EQ(replay(store, b), std::vector<Rect>{rectNo(50)});

  // A released spool is never spilled again, and its reader stays ended.
  ShardStore::Reader in = store.read(a);
  for (int k = 0; k < 9; ++k) store.append(b, rectNo(60 + k));
  Rect r;
  EXPECT_FALSE(in.next(r));
  EXPECT_EQ(spillFiles(), 1u);  // b's own file only
  store.release(b);
  EXPECT_EQ(store.memoryBytes(), 0u);
  EXPECT_EQ(spillFiles(), 0u);
  EXPECT_FALSE(store.ioError());
}

TEST_F(ShardStoreTest, OpenReaderSurvivesSpillsForcedByOtherSpools) {
  ShardStore store(budgetOf(8));
  const ShardStore::SpoolId source = store.createSpool();
  const ShardStore::SpoolId sink = store.createSpool();
  std::vector<Rect> appended;
  for (int k = 0; k < 6; ++k) {  // all in memory: no spill file yet
    appended.push_back(rectNo(k));
    store.append(source, appended.back());
  }
  ASSERT_EQ(store.spillEvents(), 0u);

  // Replay `source` while every read appends two rects to `sink`: the
  // appends spill the whole store again and again, moving the reader's
  // unread rects from memory into a spill file it has not opened yet,
  // then appending further rects behind the ones it is reading.
  std::vector<Rect> replayed;
  ShardStore::Reader in = store.read(source);
  Rect r;
  while (in.next(r)) {
    replayed.push_back(r);
    store.append(sink, r);
    store.append(sink, r);
  }
  EXPECT_GE(store.spillEvents(), 1u);
  EXPECT_EQ(replayed, appended);

  // Now with a reader that starts inside the spill file: 26 source rects
  // span file and tail, and the sink appends force more spills mid-chunk.
  for (int k = 6; k < 26; ++k) {
    appended.push_back(rectNo(k));
    store.append(source, appended.back());
  }
  const std::uint64_t eventsBefore = store.spillEvents();
  replayed.clear();
  ShardStore::Reader again = store.read(source);
  while (again.next(r)) {
    replayed.push_back(r);
    for (int k = 0; k < 5; ++k) store.append(sink, rectNo(200 + k));
  }
  EXPECT_GT(store.spillEvents(), eventsBefore + 1);
  EXPECT_EQ(replayed, appended);
  std::vector<Rect> all;
  store.readAll(source, all);
  EXPECT_EQ(all, appended);
  EXPECT_EQ(store.count(sink), 2 * 6 + 5 * 26u);
  EXPECT_FALSE(store.ioError());
}

TEST_F(ShardStoreTest, ReaderSeesItsOwnSpoolsLaterAppends) {
  ShardStore store(budgetOf(3));
  const ShardStore::SpoolId id = store.createSpool();
  store.append(id, rectNo(0));
  ShardStore::Reader in = store.read(id);
  Rect r;
  ASSERT_TRUE(in.next(r));
  EXPECT_EQ(r, rectNo(0));
  EXPECT_FALSE(in.next(r));
  for (int k = 1; k < 9; ++k) store.append(id, rectNo(k));  // spills twice
  for (int k = 1; k < 9; ++k) {
    ASSERT_TRUE(in.next(r)) << k;
    EXPECT_EQ(r, rectNo(k));
  }
  EXPECT_FALSE(in.next(r));
}

TEST_F(ShardStoreTest, DestructorRemovesSpillFiles) {
  {
    ShardStore store(budgetOf(2));
    const ShardStore::SpoolId a = store.createSpool();
    const ShardStore::SpoolId b = store.createSpool();
    for (int k = 0; k < 4; ++k) {
      store.append(a, rectNo(k));
      store.append(b, rectNo(k));
    }
    EXPECT_EQ(spillFiles(), 2u);
  }
  EXPECT_EQ(spillFiles(), 0u);
}

}  // namespace
}  // namespace ofl::layout

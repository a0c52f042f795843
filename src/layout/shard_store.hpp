// Budgeted rect spools backing the window-sharded fill pipeline.
//
// The streaming ingest routes every decomposed wire rect into per-
// (layer, window-row) spools plus per-layer pass-through spools; candidate
// and fill rects flow through further spools between passes. A ShardStore
// owns all of them under one byte budget: appends land in memory, and when
// the total exceeds the budget every buffered spool flushes to its own
// spill file (append order preserved: file bytes replay before the
// in-memory tail). Spill files live under `spillDir` and are removed on
// release/destruction.
//
// Not thread-safe: the sharded engine appends and replays from its
// orchestration thread only (workers touch per-window slots, never the
// store).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "geometry/rect.hpp"

namespace ofl::layout {

class ShardStore {
 public:
  struct Options {
    std::size_t memBudgetBytes = 256u << 20;
    /// Directory for spill files (must exist; "." default).
    std::string spillDir = ".";
  };

  using SpoolId = std::size_t;

  explicit ShardStore(const Options& options);
  ~ShardStore();

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  SpoolId createSpool();

  void append(SpoolId id, const geom::Rect& r);

  /// Sizes the spool's in-memory buffer for `n` more appends. Capacity
  /// only: the budget counts appended rects, and a spill drops it.
  void reserve(SpoolId id, std::size_t n) {
    spools_[id].mem.reserve(spools_[id].mem.size() + n);
  }

  /// Streams one spool's rects in append order (spilled prefix first,
  /// then the in-memory tail) up to its current end. The reader tracks its
  /// absolute position, so it stays valid across appends and spills of any
  /// spool (it also sees rects appended to its own spool after it opened);
  /// it ends early only when the spool is released.
  class Reader {
   public:
    /// False at end of spool (or on read error; see ShardStore::ioError).
    bool next(geom::Rect& out);

   private:
    friend class ShardStore;
    Reader(ShardStore* store, SpoolId id) : store_(store), id_(id) {}
    ShardStore* store_;
    SpoolId id_;
    std::FILE* file_ = nullptr;
    std::uint64_t pos_ = 0;         // rects returned so far
    std::uint64_t fileOffset_ = 0;  // rect offset file_ reads from next
    std::vector<geom::Rect> chunk_;
    std::size_t chunkPos_ = 0;

   public:
    Reader(Reader&& other) noexcept;
    Reader& operator=(Reader&&) = delete;
    ~Reader();
  };

  Reader read(SpoolId id);

  /// Replaces `out` with the whole spool, in append order.
  void readAll(SpoolId id, std::vector<geom::Rect>& out);

  std::uint64_t count(SpoolId id) const;

  /// Drops the spool's memory and deletes its spill file.
  void release(SpoolId id);

  /// Current in-memory bytes across all spools.
  std::uint64_t memoryBytes() const { return memoryBytes_; }
  /// Total bytes ever written to spill files.
  std::uint64_t spilledBytes() const { return spilledBytes_; }
  /// Budget-triggered flushes.
  std::uint64_t spillEvents() const { return spillEvents_; }
  bool ioError() const { return ioError_; }

 private:
  struct Spool {
    std::vector<geom::Rect> mem;
    std::string path;       // spill file; empty until first spill
    std::uint64_t onDisk = 0;  // rects in the spill file
    std::uint64_t total = 0;   // rects appended overall
    bool released = false;
  };

  void maybeSpill();
  void spill(Spool& s);

  Options options_;
  std::vector<Spool> spools_;
  std::uint64_t memoryBytes_ = 0;
  std::uint64_t spilledBytes_ = 0;
  std::uint64_t spillEvents_ = 0;
  std::uint64_t fileSerial_ = 0;
  bool ioError_ = false;
};

}  // namespace ofl::layout

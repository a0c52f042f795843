// Per-window fill-result cache for ECO incremental re-solve.
//
// A full FillEngine::run() deposits, for every window, the final fills
// keyed by a fingerprint of that window's sizing inputs (window rect,
// per-layer wires/blocked/fill-regions/wire-density, the candidate-stage
// and sizing-stage targets, and the option fields that can change the
// result). A later runIncremental() re-derives the same fingerprint for
// each affected window and serves unchanged windows straight from the
// cache — skipping candidate generation and sizing for them entirely.
//
// The cache also stores the full run's two target plans (the stage-1
// candidate plan and the stage-3 replan). The ECO path pins its targets
// to those plans (clamped into each window's fresh bounds) instead of
// re-sweeping, which is what makes the fingerprints of untouched windows
// reproduce byte-for-byte; see docs/architecture.md, "Canonical sizer
// solves and incremental ECO".
//
// Ownership: caller-owned and opt-in (FillEngineOptions::windowCache).
// lookup/insert are thread-safe (the engine calls them from worker
// threads); plan storage is read before and written after the parallel
// stages. Entries are content-addressed, so serving a hit can never
// change results relative to recomputing.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fill/target_planner.hpp"
#include "geometry/rect.hpp"

namespace ofl::fill {

class WindowCache {
 public:
  struct Entry {
    std::vector<std::vector<geom::Rect>> fills;  // final fills, per layer
    std::size_t candidateCount = 0;              // candidates the solve used
  };

  /// Target plans of the depositing full run, on its window grid.
  struct StoredPlan {
    int cols = 0;
    int rows = 0;
    int layers = 0;
    TargetPlan candidate;  // stage-1 plan (candidate-generation targets)
    TargetPlan sizing;     // stage-3 replan (sizing targets)
  };

  /// Returns true and copies the entry on a hit.
  bool lookup(std::uint64_t key, Entry& out) const;
  void insert(std::uint64_t key, Entry entry);

  void storePlan(StoredPlan plan);
  /// Copies the stored plan when one exists for this grid shape.
  bool getPlan(int cols, int rows, int layers, StoredPlan& out) const;

  std::size_t size() const;
  long long hits() const;
  long long misses() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  bool hasPlan_ = false;
  StoredPlan plan_;
  mutable long long hits_ = 0;
  mutable long long misses_ = 0;
};

}  // namespace ofl::fill

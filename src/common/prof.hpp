// Hot-path profiling registry (docs/architecture.md, "Hot-path
// profiling").
//
// A process-global table of per-stage timers and event counters with a
// fixed stage taxonomy mirroring the fill pipeline (region prep, density,
// planning, candidate generation, sizing, MCF solves, output). Collection
// is OFF by default and costs one relaxed atomic load per probe site; when
// enabled, ScopedTimer adds two steady_clock reads and one relaxed
// fetch_add, cheap enough to leave in per-window and per-solve code.
//
// Aggregation is thread-safe and cumulative across threads: a stage's
// seconds are the SUM of the time every worker spent inside it (thread-
// seconds, not wall time), so on N threads a perfectly parallel stage
// shows up to N times the wall clock. calls() disambiguates. snapshot()
// renders either a human table or a JSON object (`openfill fill
// --profile` / `batch --profile`).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace ofl::prof {

/// Pipeline stages, in report order. Engine stages first, then the
/// fine-grained kernels nested inside them (indented in the human table).
enum class Stage : int {
  kRegionPrep = 0,    // free-space regions + wire bucketing (engine stage 0)
  kDensityCompute,    // wire/current density map recomputation
  kPlanning,          // density bounds + target planning (both rounds)
  kCandidates,        // per-window candidate generation (engine stage 2)
  kCandidateRegion,   //   - Case I shared-region intersection (Fig. 4)
  kCandidateSlice,    //   - region slicing into candidate cells
  kCandidateScore,    //   - Eqn. 8 overlay scoring of even layers
  kCandidateRefine,   //   - hierarchical small-cell backfill
  kSizing,            // per-window fill sizing (engine stage 4)
  kSizerOverlay,      //   - window index + contact build, marginal scans
  kMcfSolve,          //   - differential-LP / min-cost-flow solves
  kOutput,            // fill merge + layout output
  kCount
};

/// Event counters surfaced next to the timers.
enum class Counter : int {
  kWindows = 0,        // window problems generated
  kCandidates,         // candidate fills emitted
  kIndexBuilds,        // spatial-index (re)builds
  kIndexQueries,       // spatial-index queries
  kMcfSolves,          // dual-LP solves
  kSizerClosedForm,    // uncoupled sizer passes solved in closed form
  kEcoWindowsSkipped,  // ECO windows served from the window cache
  kCount
};

const char* stageName(Stage stage);
const char* counterName(Counter counter);

struct StageStats {
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;

  double seconds() const { return static_cast<double>(nanos) * 1e-9; }
};

/// Point-in-time copy of the registry, safe to keep after reset().
struct Snapshot {
  std::array<StageStats, static_cast<std::size_t>(Stage::kCount)> stages{};
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};

  const StageStats& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  bool empty() const;

  /// Aligned human-readable table (stage seconds, calls, counters).
  std::string human() const;
  /// JSON object: {"stages": {...}, "counters": {...}} — the schema
  /// documented in docs/architecture.md and written by bench_hotpath.
  std::string json() const;
};

class Registry {
 public:
  static Registry& instance();

  /// Global collection switch. Probes are no-ops while disabled; enabling
  /// does NOT reset accumulated data (call reset() for a clean run).
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  void reset();
  Snapshot snapshot() const;

  void addTiming(Stage stage, std::uint64_t nanos) {
    auto& slot = stages_[static_cast<std::size_t>(stage)];
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.nanos.fetch_add(nanos, std::memory_order_relaxed);
  }
  void addCount(Counter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

 private:
  struct AtomicStage {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<AtomicStage, static_cast<std::size_t>(Stage::kCount)> stages_;
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Counter::kCount)>
      counters_{};
};

/// Records wall time spent between construction and destruction into
/// `stage`; a no-op (no clock reads) when collection is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Stage stage)
      : stage_(stage), armed_(Registry::enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      Registry::instance().addTiming(stage_,
                                     static_cast<std::uint64_t>(ns));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Stage stage_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Counter probe; no-op when collection is disabled.
inline void count(Counter counter, std::uint64_t n = 1) {
  if (Registry::enabled()) Registry::instance().addCount(counter, n);
}

}  // namespace ofl::prof

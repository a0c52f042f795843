// Span-based tracer emitting Chrome trace-event JSON (docs/architecture.md,
// "Observability").
//
// Collection is OFF by default: every probe site pays one relaxed atomic
// load and nothing else, so spans stay in per-window and per-lookup code
// permanently. When enabled, each thread appends fixed-size events to its
// own buffer (registered once under a mutex, then touched only by the
// owning thread plus the collector), so concurrent workers never contend.
// Names, categories and argument keys must be string literals — events
// store the pointers, never copies.
//
// The output (`Tracer::writeChromeJson`, CLI `--trace FILE`) is the Chrome
// trace-event "complete event" format: load it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Cross-thread correlation
// uses span args — every engine/service span carries the owning job id —
// rather than flow events, which keeps the writer trivial.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/prof.hpp"

namespace ofl::obs {

/// One span/instant event. Fixed-size on purpose: recording must never
/// allocate on the hot path.
struct TraceEvent {
  static constexpr int kMaxArgs = 3;

  const char* name = nullptr;  // literal
  const char* cat = "";        // literal: engine, window, sched, cache, ...
  std::uint64_t startNs = 0;   // relative to the tracer epoch
  std::uint64_t durNs = 0;
  char phase = 'X';  // 'X' complete, 'i' instant
  int argCount = 0;
  const char* argKeys[kMaxArgs] = {nullptr, nullptr, nullptr};  // literals
  double argValues[kMaxArgs] = {0, 0, 0};
};

/// A named arg attached to a span ({"job", 3}). Values are doubles: ids,
/// indices and quality telemetry all fit.
using SpanArg = std::pair<const char*, double>;

class Tracer {
 public:
  static Tracer& instance();

  /// Global collection switch; enabling does not clear prior events.
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Keeps at most `events` per recording thread, overwriting its oldest
  /// event once full; 0 (the default) keeps every event. The daemon sets
  /// it because it traces every request: unbounded, its span buffer would
  /// grow with the requests it serves.
  void setPerThreadCapacity(std::size_t events) {
    capacity_.store(events, std::memory_order_relaxed);
  }

  /// Drops every recorded event (thread buffers stay registered).
  void clear();

  /// Nanoseconds since the tracer epoch (process start).
  std::uint64_t nowNs() const;
  /// Converts an externally captured steady_clock point (e.g. a job's
  /// submit time) to epoch-relative nanoseconds, clamped at 0.
  std::uint64_t toEpochNs(std::chrono::steady_clock::time_point t) const;

  /// Appends to the calling thread's buffer. Callers must check enabled()
  /// first (Stage and the free helpers below do).
  void record(const TraceEvent& event);

  /// Number of events across all thread buffers.
  std::size_t eventCount() const;
  /// Events with their recording thread's stable id, in per-thread order.
  struct CollectedEvent {
    TraceEvent event;
    int tid = 0;
  };
  std::vector<CollectedEvent> collect() const;

  /// Renders {"traceEvents": [...]} (Chrome/Perfetto loadable).
  std::string chromeJson() const;
  bool writeChromeJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::mutex mutex;  // owner appends, collector copies; never contended
    int tid = 0;
    std::vector<TraceEvent> events;
    std::size_t oldest = 0;  // ring start once `events` reached capacity
  };

  Tracer();
  ThreadBuffer& localBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex registryMutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// One probe per stage boundary (docs/architecture.md, "Observability"):
/// over one scope it records a complete span, times a prof::Stage and
/// adds the wall seconds to an accumulator such as a FillReport field.
/// Each part arms on its own, latched at construction: the span while
/// tracing is on, the prof timer while prof collection is on and `stage`
/// is not prof::Stage::kCount, the accumulator when `seconds` is set. All
/// armed parts read the same two clock samples. With none armed the probe
/// reads no clock and builds no event: at most two relaxed atomic loads.
class Stage {
 public:
  explicit Stage(const char* name, const char* cat = "engine",
                 std::initializer_list<SpanArg> args = {},
                 prof::Stage stage = prof::Stage::kCount,
                 double* seconds = nullptr)
      : traced_(Tracer::enabled()),
        stage_(stage != prof::Stage::kCount && prof::Registry::enabled()
                   ? stage
                   : prof::Stage::kCount),
        seconds_(seconds) {
    if (traced_) {
      event_.emplace();
      event_->name = name;
      event_->cat = cat;
      for (const SpanArg& a : args) {
        if (event_->argCount >= TraceEvent::kMaxArgs) break;
        event_->argKeys[event_->argCount] = a.first;
        event_->argValues[event_->argCount] = a.second;
        ++event_->argCount;
      }
    }
    if (armed()) start_ = std::chrono::steady_clock::now();
  }
  Stage(const char* name, const char* cat, std::initializer_list<SpanArg> args,
        double* seconds)
      : Stage(name, cat, args, prof::Stage::kCount, seconds) {}
  ~Stage() {
    if (!armed()) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (stage_ != prof::Stage::kCount) {
      prof::Registry::instance().addTiming(stage_, ns);
    }
    if (seconds_ != nullptr) *seconds_ += static_cast<double>(ns) * 1e-9;
    if (traced_) {
      Tracer& tracer = Tracer::instance();
      event_->startNs = tracer.toEpochNs(start_);
      event_->durNs = ns;
      tracer.record(*event_);
    }
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  bool armed() const {
    return traced_ || stage_ != prof::Stage::kCount || seconds_ != nullptr;
  }

  bool traced_;
  prof::Stage stage_;  // kCount when not timed
  double* seconds_;
  std::chrono::steady_clock::time_point start_;
  std::optional<TraceEvent> event_;  // built only while tracing
};

/// A span alone: a Stage with no prof stage and no accumulator.
using ScopedSpan = Stage;

/// Records a complete span after the fact (e.g. queue-wait measured when
/// the item is finally picked up). No-op while disabled.
void completeSpan(const char* name, const char* cat, std::uint64_t startNs,
                  std::uint64_t durNs, std::initializer_list<SpanArg> args);

/// Records an instant event ("i" phase). No-op while disabled.
void instant(const char* name, const char* cat,
             std::initializer_list<SpanArg> args);

}  // namespace ofl::obs

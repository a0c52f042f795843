// Wall-clock stopwatch used for the contest runtime score and for whole-run
// and I/O timings. Stage timings go through obs::Stage (obs/trace.hpp).
#pragma once

#include <chrono>
#include <string>

namespace ofl {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ofl

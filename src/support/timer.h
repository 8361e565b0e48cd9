//===- timer.h - Wall-clock timing ------------------------------*- C++ -*-===//
///
/// \file
/// Monotonic wall-clock timer used by the benchmark harness and by the
/// constant-cache statistics.
///
//===----------------------------------------------------------------------===//

#ifndef GC_SUPPORT_TIMER_H
#define GC_SUPPORT_TIMER_H

#include <chrono>

namespace gc {

/// Wall-clock stopwatch; starts on construction.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace gc

#endif // GC_SUPPORT_TIMER_H

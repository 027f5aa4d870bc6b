// Wall-clock timing helpers used by the experiment harness, benches, and
// per-build diagnostics.

#ifndef FASTCORESET_COMMON_TIMER_H_
#define FASTCORESET_COMMON_TIMER_H_

#include <chrono>
#include <string>

namespace fastcoreset {

/// Monotonic stopwatch; starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Reset().
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// One timed pipeline stage ("seeding", "sampling", ...).
struct StageTime {
  std::string name;
  double seconds = 0.0;
};

}  // namespace fastcoreset

#endif  // FASTCORESET_COMMON_TIMER_H_

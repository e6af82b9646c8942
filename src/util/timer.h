// Wall-clock timing helpers used by the benchmark driver and the tools.

#ifndef DYNMIS_SRC_UTIL_TIMER_H_
#define DYNMIS_SRC_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace dynmis {

// Measures elapsed wall-clock time with steady_clock. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  // Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  // Returns seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Returns milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  // Returns microseconds elapsed since construction or the last Reset().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_UTIL_TIMER_H_

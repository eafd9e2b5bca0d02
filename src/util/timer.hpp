// Wall-clock timing utilities for the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ust {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Elapsed seconds since construction/reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Result of a repeated timing run.
struct TimingResult {
  double min_s = 0.0;
  double median_s = 0.0;
  double p90_s = 0.0;  // nearest-rank 90th percentile
  double mean_s = 0.0;
  double stddev_s = 0.0;
  int repetitions = 0;
};

/// Runs `fn` once for warmup then `reps` timed repetitions.
/// `reps <= 0` selects an adaptive count targeting ~`budget_s` seconds total.
TimingResult time_repeated(const std::function<void()>& fn, int reps = 0,
                           double budget_s = 1.0);

/// Formats seconds with an adaptive unit (ns/us/ms/s).
std::string format_seconds(double s);

}  // namespace ust

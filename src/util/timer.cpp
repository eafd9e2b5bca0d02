#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/common.hpp"

namespace ust {

TimingResult time_repeated(const std::function<void()>& fn, int reps, double budget_s) {
  UST_EXPECTS(budget_s > 0.0);
  // Warmup run, also used to size the adaptive repetition count.
  Timer warm;
  fn();
  const double first = warm.seconds();
  if (reps <= 0) {
    reps = first <= 0.0 ? 10 : static_cast<int>(budget_s / std::max(first, 1e-6));
    reps = std::clamp(reps, 3, 50);
  }

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    samples.push_back(t.seconds());
  }
  std::sort(samples.begin(), samples.end());

  TimingResult r;
  r.repetitions = reps;
  r.min_s = samples.front();
  r.median_s = samples[samples.size() / 2];
  r.p90_s = samples[(samples.size() * 9 + 9) / 10 - 1];
  double sum = 0.0;
  for (double s : samples) sum += s;
  r.mean_s = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (double s : samples) var += (s - r.mean_s) * (s - r.mean_s);
  r.stddev_s = samples.size() > 1 ? std::sqrt(var / static_cast<double>(samples.size() - 1)) : 0.0;
  return r;
}

std::string format_seconds(double s) {
  char buf[64];
  if (s < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.1f ns", s * 1e9);
  } else if (s < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  }
  return buf;
}

}  // namespace ust

#include "src/common/stats.h"

#include <cmath>

namespace samie {

double percent_delta(double value, double baseline) noexcept {
  if (baseline == 0.0) return 0.0;
  return (value - baseline) / baseline * 100.0;
}

double percent_saved(double value, double baseline) noexcept {
  if (baseline == 0.0) return 0.0;
  return (baseline - value) / baseline * 100.0;
}

double geometric_mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double arithmetic_mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

}  // namespace samie

// Lightweight statistics primitives used by the simulator and the
// experiment harness: a running mean, and percentages and means over
// finished results. Everything is instance-local (no global registries)
// so that concurrent simulations never share mutable state (Core
// Guidelines CP.1).
#pragma once

#include <cstdint>
#include <vector>

namespace samie {

/// Running mean over a stream of doubles (Welford's update).
///
/// add() is header-inline: the occupancy collectors call it twice per
/// simulated cycle, and the out-of-line call was measurable in the
/// cycle-loop profile. The arithmetic is unchanged — same operations,
/// same order — so every accumulated statistic stays bit-identical.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
};

/// Percent difference of `value` vs `baseline` ((value-baseline)/baseline,
/// in percent). Returns 0 when the baseline is 0.
[[nodiscard]] double percent_delta(double value, double baseline) noexcept;

/// Percent saved going from `baseline` to `value` (positive = savings).
[[nodiscard]] double percent_saved(double value, double baseline) noexcept;

/// Geometric mean of a non-empty vector of positive values (0 otherwise).
[[nodiscard]] double geometric_mean(const std::vector<double>& xs) noexcept;

/// Arithmetic mean (0 for an empty vector).
[[nodiscard]] double arithmetic_mean(const std::vector<double>& xs) noexcept;

}  // namespace samie

// Functional-unit pools (paper Table 2): pipelined pools accept one
// operation per unit per cycle; non-pipelined units (dividers) stay busy
// for the whole operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace samie::core {

/// Fully-pipelined pool: up to `units` issues per cycle.
class PipelinedPool {
 public:
  explicit PipelinedPool(std::uint32_t units) : units_(units) {}

  /// Saturation lasts one cycle (new_cycle resets it), so a pipelined
  /// pool is never what a quiescent core waits on.
  void new_cycle() noexcept { issued_ = 0; }
  bool try_issue() noexcept {
    if (issued_ >= units_) return false;
    ++issued_;
    return true;
  }

 private:
  std::uint32_t units_;
  std::uint32_t issued_ = 0;
};

/// Pool of units that an operation occupies for `busy` cycles (dividers:
/// busy == latency; pipelined multipliers: busy == 1 with latency > 1).
/// A busy unit never blocks the fast-forward: the operation occupying it
/// already has its completion on the calendar wheel, and any instruction
/// waiting for the unit sits in a ready queue.
class OccupyingPool {
 public:
  explicit OccupyingPool(std::uint32_t units) : busy_until_(units, 0) {}

  void reset() noexcept {
    for (Cycle& b : busy_until_) b = 0;
  }

  /// Takes the lowest-index unit free at `now` (first fit). An operation
  /// holds its unit at least for the cycle it issues in, so a unit taken
  /// at `now` is not free again until a later cycle.
  bool try_issue(Cycle now, Cycle busy) noexcept {
    for (Cycle& b : busy_until_) {
      if (b <= now) {
        b = now + std::max<Cycle>(busy, 1);
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<Cycle> busy_until_;
};

}  // namespace samie::core

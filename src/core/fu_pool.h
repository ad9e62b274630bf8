// Functional-unit pools (paper Table 2): pipelined pools accept one
// operation per unit per cycle; non-pipelined units (dividers) stay busy
// for the whole operation.
#pragma once

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
class OccupyingPool {
 public:
  explicit OccupyingPool(std::uint32_t units) : busy_until_(units, 0) {
    free_scratch_.reserve(units);
  }

  void reset() noexcept {
    for (Cycle& b : busy_until_) b = 0;
  }

  // -- batch arbitration (issue_stage) ---------------------------------------
  /// Snapshots the free units once per cycle; try_issue_batched then
  /// takes them in ascending-index order without rescanning (first fit
  /// by unit index). Busy state only changes through takes within the
  /// cycle (a reset() mid-cycle, the full-flush path, happens before
  /// issue runs), so the snapshot cannot go stale. A busy unit never
  /// blocks the fast-forward: the operation occupying it already has its
  /// completion on the calendar wheel, and any instruction waiting for
  /// the unit sits in a ready queue.
  void begin_arbitration(Cycle now) noexcept {
    free_scratch_.clear();
    for (std::uint32_t i = 0; i < busy_until_.size(); ++i) {
      if (busy_until_[i] <= now) free_scratch_.push_back(i);
    }
    taken_ = 0;
  }
  bool try_issue_batched(Cycle now, Cycle busy) noexcept {
    if (taken_ >= free_scratch_.size()) return false;
    busy_until_[free_scratch_[taken_++]] = now + busy;
    return true;
  }

 private:
  std::vector<Cycle> busy_until_;
  /// Per-cycle arbitration snapshot: indices of units free at
  /// begin_arbitration time, consumed front to back. Sized once (the
  /// unit count is fixed), so snapshots never allocate.
  std::vector<std::uint32_t> free_scratch_;
  std::uint32_t taken_ = 0;
};

}  // namespace samie::core

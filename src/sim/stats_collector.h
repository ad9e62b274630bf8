// Per-cycle occupancy-statistics collector, built into every sim::Lane
// (run_simulation drives one lane to completion).
//
// Integrates occupancy-dependent statistics once per cycle: the paper's
// active-area policy (Section 4.2) and the Figure 3/4 occupancy series.
//
// Core is templated over this concrete type, so its one hook, on_cycles,
// is a direct, inlinable call — no virtual dispatch in the cycle loop.
// The core reads the queue's occupancy() after every stepped cycle and
// passes it here with a count of 1 (a fast-forward passes its span). The
// per-cycle work itself is batched: occupancy changes much slower than
// cycles, so identical consecutive samples are run-length collected (one
// compare per stepped cycle) and the area / occupancy math runs once per
// distinct sample at flush time. The flush replays the accumulator
// updates once per covered cycle in the original order, so every
// statistic stays bit-identical to the unbatched per-cycle version.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/common/stats.h"
#include "src/energy/ledger.h"
#include "src/energy/lsq_model.h"
#include "src/lsq/lsq_interface.h"
#include "src/sim/simulator.h"

namespace samie::sim {

class StatsCollector final {
 public:
  /// Keeps a reference to `cfg`: the owner (LaneImpl) must outlive it.
  StatsCollector(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : cfg_(cfg),
        conv_entry_area_(energy::conv_entry_area_um2(k)),
        samie_fixed_area_(energy::samie_entry_fixed_area_um2(k)),
        samie_slot_area_(energy::samie_slot_area_um2(k)),
        addrbuf_slot_area_(energy::addrbuf_slot_area_um2(k)) {}

  /// The core's one hook: `count` cycles that share the occupancy
  /// sample `occ` (1 after a stepped cycle, the span of a fast-forward).
  /// They extend the current run when the sample is unchanged; the flush
  /// replays the accumulator updates once per covered cycle either way.
  void on_cycles(std::uint64_t count, const lsq::OccupancySample& occ) {
    if (run_len_ != 0 && occ == run_sample_) {
      run_len_ += count;
      return;
    }
    flush_run();
    run_sample_ = occ;
    run_len_ = count;
  }

  void fold_into(SimResult& r) {
    flush_run();
    r.area_total = cfg_.lsq == LsqChoice::kSamie ? area_.samie_total()
                                                 : area_.conventional();
    r.area_distrib = area_.distrib();
    r.area_shared = area_.shared();
    r.area_addrbuf = area_.addrbuf();
    r.shared_occupancy_mean = shared_occ_.mean();
    r.shared_occupancy_max = shared_max_;
    r.buffer_occupancy_mean = buffer_occ_.mean();
    r.buffer_nonempty_frac =
        cycles_ == 0 ? 0.0
                     : static_cast<double>(buffer_nonempty_) /
                           static_cast<double>(cycles_);
  }

 private:
  /// Applies the pending run: the occ-derived terms are computed once,
  /// then the accumulators advance one step per covered cycle (the exact
  /// FP operation sequence of the per-cycle version — Welford means and
  /// the area integrals round per cycle, so a single fused multiply
  /// would drift the low bits).
  void flush_run() {
    if (run_len_ == 0) return;
    const lsq::OccupancySample& occ = run_sample_;
    cycles_ += run_len_;
    if (cfg_.lsq == LsqChoice::kSamie) {
      // DistribLSQ: in-use entries plus one spare entry per non-full bank;
      // in-use slots plus one spare slot per active entry.
      const double spare_entries =
          static_cast<double>(cfg_.samie.banks - occ.distrib_banks_full);
      const double entries_active =
          static_cast<double>(occ.distrib_entries_used) + spare_entries;
      const double slots_active =
          static_cast<double>(occ.distrib_slots_used) +
          static_cast<double>(occ.distrib_entries_used -
                              occ.distrib_entries_full) +
          spare_entries;
      const double distrib =
          entries_active * samie_fixed_area_ + slots_active * samie_slot_area_;
      const double shared = shared_area(occ);
      const double addrbuf =
          addrbuf_slot_area_ *
          static_cast<double>(
              std::min(occ.buffer_used + 4, cfg_.samie.addr_buffer_slots));
      const double shared_used = static_cast<double>(occ.shared_entries_used);
      const double buffer_used = static_cast<double>(occ.buffer_used);
      for (std::uint64_t i = 0; i < run_len_; ++i) {
        area_.add_cycle(distrib, shared, addrbuf);
        shared_occ_.add(shared_used);
        buffer_occ_.add(buffer_used);
      }
      shared_max_ =
          std::max<std::uint64_t>(shared_max_, occ.shared_entries_used);
      if (occ.buffer_used > 0) buffer_nonempty_ += run_len_;
    } else {
      // Conventional policy: in-use entries plus four spare entries.
      const double active =
          static_cast<double>(
              std::min(occ.entries_used + 4, cfg_.conventional.entries)) *
          conv_entry_area_;
      for (std::uint64_t i = 0; i < run_len_; ++i) {
        area_.add_cycle_conventional(active);
      }
    }
    run_len_ = 0;
  }

  [[nodiscard]] double shared_area(const lsq::OccupancySample& occ) const {
    const std::uint32_t capacity = cfg_.samie.unbounded_shared
                                       ? occ.shared_entries_used + 1
                                       : cfg_.samie.shared_entries;
    const double spare = occ.shared_entries_used < capacity ? 1.0 : 0.0;
    const double entries_active =
        static_cast<double>(occ.shared_entries_used) + spare;
    const double slots_active =
        static_cast<double>(occ.shared_slots_used) +
        static_cast<double>(occ.shared_entries_used - occ.shared_entries_full) +
        spare;
    return entries_active * samie_fixed_area_ + slots_active * samie_slot_area_;
  }

  const SimConfig& cfg_;
  double conv_entry_area_;
  double samie_fixed_area_;
  double samie_slot_area_;
  double addrbuf_slot_area_;
  energy::AreaIntegrator area_;
  RunningStat shared_occ_;
  RunningStat buffer_occ_;
  std::uint64_t shared_max_ = 0;
  std::uint64_t buffer_nonempty_ = 0;
  std::uint64_t cycles_ = 0;
  lsq::OccupancySample run_sample_;
  std::uint64_t run_len_ = 0;
};

}  // namespace samie::sim

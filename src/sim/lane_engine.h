// A Lane is one fully built machine — queue, ledgers, memory hierarchy,
// predictor, collector, Core — behind a two-method interface: step it,
// then finish it. The concrete LaneImpl<LsqT> keeps Core statically
// dispatched over the queue and observer; the only virtual boundary is
// one step() call per turn, so stepping costs nothing measurable per
// cycle.
//
// run_simulation *is* a single lane stepped to completion in one turn
// (see simulator.cpp), and Core::step() resumes exactly where the last
// call stopped, so slicing a run into turns of any size cannot change a
// statistic. The per-lane energy fold is the integer-event ledger fold
// (src/energy/ledger.h) plus the D-cache/DTLB fold over the core's own
// access counts — O(1) regardless of event count.
// docs/ENERGY_LEDGER.md gives the bit-identity argument.
//
// Turns are also where a caller's wall-clock deadline lives: the sweep's
// attempt body steps its lane a fixed number of cycles at a time and
// reads the clock between turns; the core itself reads no clock.
#pragma once

#include <cstdint>
#include <memory>

#include "src/sim/simulator.h"
#include "src/trace/trace_view.h"

namespace samie::sim {

/// One resumable simulation. Exceptions from the underlying core
/// (commit watchdog, presentBit protocol violation) propagate out of
/// step().
class Lane {
 public:
  virtual ~Lane() = default;
  /// Advances up to `max_cycles` stepped cycles; false when the run is
  /// complete and finish() may be called.
  virtual bool step(std::uint64_t max_cycles) = 0;
  /// Seals the run and folds the statistics. Call once.
  [[nodiscard]] virtual SimResult finish() = 0;
};

/// Builds the machine for `cfg` over the borrowed `trace` view (the
/// backing storage must outlive the lane). Dispatches on cfg.lsq like
/// run_simulation; cfg is copied into the lane.
[[nodiscard]] std::unique_ptr<Lane> make_lane(const SimConfig& cfg,
                                              trace::TraceView trace);
/// The same machine over `source`'s blocks (the source must outlive the
/// lane): the lane owns a TraceWindow that decodes each block as fetch
/// reaches it, into a ring of the largest block plus rob_size +
/// fetch_queue records. Statistics are bit-identical to a lane over
/// source.view().
[[nodiscard]] std::unique_ptr<Lane> make_lane(
    const SimConfig& cfg, const trace::TraceSource& source);

}  // namespace samie::sim

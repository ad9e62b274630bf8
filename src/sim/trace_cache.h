// Thread-safe cache of trace sources with a once-per-key build latch
// and per-consumer release discipline.
//
// Generated workloads are keyed by (program, length, seed); recorded
// SAMT files by (path, 0, 0), since every job over a file opens all of
// it. The first worker to request a key builds it *outside* the cache
// lock (distinct keys materialize concurrently) while later requesters
// wait on the latch instead of generating or opening the same multi-MB
// workload a second time. A failed build releases the latch so a retry
// attempt rebuilds rather than being poisoned forever.
//
// Residency: the constructor registers every job that will actually run
// (resume-skipped jobs excluded), and finished() counts them back down.
// When a key's last consumer finishes, the cache drops its own
// shared_ptr — so a generated trace unmaps its pages (returning them to
// the OS), a decoded SAMT file frees its buffer, and a mapped one
// unmaps, the moment the last worker/child over it lets go of its
// reference. Release alone bounds residency only by the traces whose
// jobs are spread over the job list: a suite x LSQ sweep submitted
// LSQ-major would keep every program's trace until its last LSQ runs.
// So the cache also hands the sweep its dispatch order, dispatch_order():
// the registered jobs grouped by this same key, so a trace's jobs run
// back to back and it is released before the next traces are built.
// Residency then tracks the workers (at most one trace per job in
// flight), not the suite size; resident_high_water() is the regression
// probe for exactly that.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/experiment.h"
#include "src/trace/trace_source.h"

namespace samie::sim {

class TraceCache {
 public:
  /// Registers the jobs that will actually run (resume-skipped jobs are
  /// excluded) so finished() can release the source the moment a
  /// trace's last consumer completes.
  TraceCache(const std::vector<Job>& jobs, const std::vector<bool>& resumed);

  /// The registered jobs' indices grouped by trace: all jobs of one trace
  /// back to back, traces in the order of their first job, job order
  /// kept within a trace. A job list whose traces are already contiguous
  /// (or all distinct) comes back in job order.
  [[nodiscard]] const std::vector<std::size_t>& dispatch_order()
      const noexcept {
    return order_;
  }

  /// Returns the (built-once) source for the job's trace. The returned
  /// shared_ptr keeps the storage alive even after the cache releases
  /// its own reference.
  std::shared_ptr<const trace::TraceSource> get(const Job& job);

  /// A job is done with its trace (success, failure or skip) — called
  /// exactly once per job. When it was the last consumer, the cache drops
  /// its reference, so the source is destroyed as soon as the caller's
  /// own shared_ptr goes.
  void finished(const Job& job);

  // -- residency probes (regression tests; all O(log keys)) ------------------
  /// Sources the cache currently holds (built or mid-build).
  [[nodiscard]] std::size_t resident_sources() const;
  /// High-water mark of resident_sources() over the cache's lifetime.
  [[nodiscard]] std::size_t resident_high_water() const;
  /// Consumers still registered against this job's trace.
  [[nodiscard]] std::size_t pending_consumers(const Job& job) const;

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::uint64_t>;

  struct Slot {
    std::shared_ptr<const trace::TraceSource> src;
    bool building = false;
    bool ready = false;
  };

  [[nodiscard]] static Key key_of(const Job& job);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, Slot> slots_;
  std::map<Key, std::size_t> pending_;
  std::vector<std::size_t> order_;  ///< dispatch_order(); immutable
  std::size_t high_water_ = 0;
};

}  // namespace samie::sim

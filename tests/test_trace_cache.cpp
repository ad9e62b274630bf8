// Residency tests for the sweep's trace cache (src/sim/trace_cache.h):
// the per-consumer release discipline must drop each source the moment
// its *last* consumer finishes — not at cache destruction — and a
// sweep's resident high-water mark must track the workers in flight,
// not every trace the sweep ever touched. This is the regression fence
// for the 458 MB suite RSS leak: before the fix the cache pinned every
// generated workload until the sweep returned.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/sweep_scheduler.h"
#include "src/sim/trace_cache.h"
#include "src/trace/trace_source.h"

namespace samie {
namespace {

[[nodiscard]] sim::Job job_for(const std::string& program,
                               std::uint64_t insts = 2000) {
  sim::Job j;
  j.program = program;
  j.config = sim::paper_config(sim::LsqChoice::kSamie);
  j.config.instructions = insts;
  j.tag = "cache-test";
  return j;
}

TEST(TraceCache, ReleasesEachSourceWhenItsLastConsumerFinishes) {
  // Jobs 0 and 1 share one trace (same program/seed/length); job 2 has
  // its own. The shared source must survive the first finished() and
  // drop on the second; the lone source drops immediately.
  const std::vector<sim::Job> jobs = {job_for("gcc"), job_for("gcc"),
                                      job_for("mcf")};
  sim::TraceCache cache(jobs, std::vector<bool>(jobs.size(), false));
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 2U);
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 1U);
  EXPECT_EQ(cache.resident_sources(), 0U);

  auto shared = cache.get(jobs[0]);
  auto lone = cache.get(jobs[2]);
  EXPECT_EQ(cache.get(jobs[1]).get(), shared.get())
      << "identical keys must share one build";
  EXPECT_EQ(cache.resident_sources(), 2U);

  cache.finished(jobs[2]);
  EXPECT_EQ(cache.resident_sources(), 1U)
      << "a lone consumer's trace must drop at its finished()";
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 0U);

  cache.finished(jobs[0]);
  EXPECT_EQ(cache.resident_sources(), 1U)
      << "a shared trace must survive until the last consumer";
  cache.finished(jobs[1]);
  EXPECT_EQ(cache.resident_sources(), 0U);
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 0U);

  // The handed-out shared_ptrs still keep the storage alive — only the
  // cache's own reference is gone.
  EXPECT_NE(shared->view().size(), 0U);
  EXPECT_NE(lone->view().size(), 0U);
  EXPECT_EQ(cache.resident_high_water(), 2U);
}

TEST(TraceCache, ResumeSkippedJobsNeverRegisterAsConsumers) {
  // A resumed job's trace is never requested; registering it would pin
  // the source forever (the consumer count could not reach zero).
  const std::vector<sim::Job> jobs = {job_for("gcc"), job_for("gcc"),
                                      job_for("mcf")};
  sim::TraceCache cache(jobs, {false, true, true});
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 1U);
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 0U);
  (void)cache.get(jobs[0]);
  cache.finished(jobs[0]);
  EXPECT_EQ(cache.resident_sources(), 0U);
}

TEST(TraceCache, PoolSweepHighWaterTracksWorkersNotSuiteSize) {
  // Six distinct traces through two workers: with the release
  // discipline each worker pins only the trace it is running (a job
  // releases its trace when it seals, before its worker takes the next
  // one). Jobs long enough that both workers overlap make the lower
  // bound hold. Before the fix this read 6.
  std::vector<sim::Job> jobs;
  for (const char* p : {"gcc", "mcf", "ammp", "art", "crafty", "gzip"}) {
    jobs.push_back(job_for(p, 20'000));
  }
  sim::SweepOptions pool;
  pool.threads = 2;
  const sim::SweepReport rep = sim::run_sweep(jobs, pool);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_GE(rep.trace_resident_high_water, 2U);
  EXPECT_LE(rep.trace_resident_high_water, 3U)
      << "sweep pinned more traces than workers in flight";
}

}  // namespace
}  // namespace samie

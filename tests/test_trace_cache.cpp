// Residency tests for the sweep's trace cache (src/sim/trace_cache.h):
// the per-consumer release discipline must drop each source the moment
// its *last* consumer finishes — not at cache destruction — and a
// sweep's resident high-water mark must track the workers in flight,
// not every trace the sweep ever touched, also when the job list
// interleaves traces (the sweep dispatches it grouped by trace). This
// is the regression fence for the 458 MB suite RSS leak: before the fix
// the cache pinned every generated workload until the sweep returned.
// A dropped generated trace must also leave the address space, not
// linger in a malloc arena, and a live one keeps no more than the pages
// of its encoded blocks resident.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/sweep_scheduler.h"
#include "src/sim/trace_cache.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_source.h"

namespace samie {
namespace {

[[nodiscard]] sim::Job job_for(const std::string& program,
                               std::uint64_t insts = 2000,
                               sim::LsqChoice lsq = sim::LsqChoice::kSamie) {
  sim::Job j;
  j.program = program;
  j.config = sim::paper_config(lsq);
  j.config.instructions = insts;
  j.tag = "cache-test";
  return j;
}

/// True when the pages holding the first and the last of `bytes` are
/// mapped into this process (mincore fails with ENOMEM on an unmapped
/// page).
[[nodiscard]] bool bytes_mapped(std::span<const unsigned char> bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  for (const unsigned char* byte : {&bytes.front(), &bytes.back()}) {
    const std::uintptr_t start =
        reinterpret_cast<std::uintptr_t>(byte) & ~(page - 1);
    if (::mincore(reinterpret_cast<void*>(start), page, &resident) != 0) {
      return false;
    }
  }
  return true;
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

TEST(TraceCache, ReleasedGeneratedTraceLeavesTheAddressSpace) {
  // A 100k-instruction trace is about 0.9 MB of encoded blocks. glibc
  // serves the first buffer that large with mmap and unmaps it on free,
  // but then raises its mmap threshold: later ones come from a malloc
  // arena, which keeps them mapped after free. So each of several
  // traces built and dropped in turn must leave the address space once
  // its last holder (here, after the cache) lets go.
  const std::vector<sim::Job> jobs = {job_for("gcc", 100'000),
                                      job_for("mcf", 100'000),
                                      job_for("art", 100'000)};
  sim::TraceCache cache(jobs, std::vector<bool>(jobs.size(), false));
  for (const sim::Job& job : jobs) {
    SCOPED_TRACE(job.program);
    std::shared_ptr<const trace::TraceSource> src = cache.get(job);
    ASSERT_EQ(src->size(), 100'000U);
    const std::span<const unsigned char> blocks = src->blocks();
    ASSERT_FALSE(blocks.empty());
    ASSERT_TRUE(bytes_mapped(blocks));
    cache.finished(job);
    EXPECT_TRUE(bytes_mapped(blocks)) << "a holder still reads them";
    src.reset();
    EXPECT_FALSE(bytes_mapped(blocks))
        << "the blocks stayed mapped after their last holder let go";
  }
}

/// End of the mapping (per /proc/self/maps) that holds `addr`; 0 if none.
[[nodiscard]] std::uintptr_t mapping_end(std::uintptr_t addr) {
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return 0;
  std::uintptr_t end = 0;
  char line[512];
  while (end == 0 && std::fgets(line, sizeof line, maps) != nullptr) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    if (std::sscanf(line, "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2 &&
        lo <= addr && addr < hi) {
      end = hi;
    }
  }
  std::fclose(maps);
  return end;
}

TEST(TraceCache, GeneratedTraceKeepsOnlyItsRecordPagesResident) {
  // A generated trace is its encoded v2 blocks, in a mapping that ends
  // at the page holding their last byte: a 100k-record trace keeps at
  // most 1 MiB resident (its 3.2 MB of 32-byte records are never all
  // decoded at once), and only pages the encoder wrote.
  constexpr std::uint64_t kRecords = 100'000;
  const trace::TraceSource src = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), 42, kRecords);
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::span<const unsigned char> blocks = src.blocks();
  const auto start = reinterpret_cast<std::uintptr_t>(blocks.data());
  const std::uintptr_t block_pages = (blocks.size() + page - 1) & ~(page - 1);
  EXPECT_LE(block_pages, std::uintptr_t{1} << 20);
  const std::uintptr_t end = mapping_end(start);
  ASSERT_GT(end, start);
  EXPECT_EQ(end - start, block_pages)
      << "the mapping outlives the encoded bytes";
  std::vector<unsigned char> in_core((end - start) / page);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(start), end - start,
                      in_core.data()),
            0);
  std::uintptr_t resident = 0;
  for (const unsigned char c : in_core) resident += (c & 1) != 0 ? page : 0;
  EXPECT_GT(resident, 0U) << "the encoder wrote every block";
  EXPECT_LE(resident, block_pages);
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

TEST(TraceCache, DispatchOrderGroupsJobsByTrace) {
  // Traces in the order of their first job, job order within a trace;
  // resumed jobs are not dispatched at all.
  const std::vector<sim::Job> jobs = {
      job_for("gcc"),
      job_for("mcf"),
      job_for("gcc", 2000, sim::LsqChoice::kArb),
      job_for("art"),
      job_for("mcf", 2000, sim::LsqChoice::kArb),
      job_for("gcc", 3000)};
  const sim::TraceCache cache(jobs, std::vector<bool>(jobs.size(), false));
  EXPECT_EQ(cache.dispatch_order(),
            (std::vector<std::size_t>{0, 2, 1, 4, 3, 5}));
  const sim::TraceCache resumed(jobs,
                                {false, true, false, false, false, false});
  EXPECT_EQ(resumed.dispatch_order(),
            (std::vector<std::size_t>{0, 2, 3, 4, 5}));
}

TEST(TraceCache, LsqMajorSweepHighWaterTracksWorkersNotSuiteSize) {
  // The paper's figure sweeps submit suite x LSQ LSQ-major: each
  // program's trace serves three jobs six apart. Dispatched in job
  // order, every trace stayed resident until its samie job ran (this
  // read 6); grouped by trace, a trace is released before the next ones
  // are built, under either runner. Rows still come back in job order,
  // bit-identical to a one-worker run.
  std::vector<sim::Job> jobs;
  for (const sim::LsqChoice lsq : {sim::LsqChoice::kConventional,
                                   sim::LsqChoice::kArb,
                                   sim::LsqChoice::kSamie}) {
    for (const char* p : {"gcc", "mcf", "ammp", "art", "crafty", "gzip"}) {
      jobs.push_back(job_for(p, 20'000, lsq));
      jobs.back().tag = sim::lsq_choice_name(lsq);
    }
  }
  sim::SweepOptions serial;
  serial.threads = 1;
  const sim::SweepReport ref = sim::run_sweep(jobs, serial);
  ASSERT_TRUE(ref.all_completed());

  sim::SweepOptions pool;
  pool.threads = 2;
  sim::SweepOptions forked;
  forked.isolate_procs = 2;
  for (const sim::SweepOptions& opt : {pool, forked}) {
    SCOPED_TRACE(opt.isolate_procs != 0 ? "isolate_procs=2" : "threads=2");
    const sim::SweepReport rep = sim::run_sweep(jobs, opt);
    ASSERT_TRUE(rep.all_completed());
    EXPECT_LE(rep.trace_resident_high_water, 3U)
        << "an interleaved job list pinned traces beyond the workers";
    ASSERT_EQ(rep.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(rep.jobs[i].job.program, jobs[i].program) << "job " << i;
      EXPECT_EQ(rep.jobs[i].job.tag, jobs[i].tag) << "job " << i;
      EXPECT_EQ(sim::serialize_sim_result(rep.jobs[i].result),
                sim::serialize_sim_result(ref.jobs[i].result))
          << "job " << i;
    }
  }
}

}  // namespace
}  // namespace samie

// Tests for the supervised sweep scheduler and the crash-safe checkpoint
// layer: failure classification and isolation, transient retry with
// capped backoff, cooperative deadline cancellation, max-failures drain,
// checkpoint/resume bit-identity (including torn-tail tolerance, a
// journal that dies mid-run and wrong-sweep refusal), and the exact
// SimResult text round-trip. Faults are injected deterministically via
// SweepFaultPlan or a file-size limit — no test here depends on timing
// races to reproduce.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/core.h"
#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class SweepSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_sweep_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  /// Three small jobs over distinct programs (distinct trace-cache keys).
  [[nodiscard]] static std::vector<sim::Job> three_jobs(
      std::uint64_t insts = 3000) {
    sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
    cfg.instructions = insts;
    std::vector<sim::Job> jobs;
    for (const char* p : {"gcc", "ammp", "mcf"}) {
      jobs.push_back(sim::Job{p, cfg, "samie"});
    }
    return jobs;
  }

  fs::path dir_;
};

/// Bit-exact SimResult equality via the hexfloat serialization (equal
/// strings <=> equal bits for every field).
void expect_results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(sim::serialize_sim_result(a), sim::serialize_sim_result(b));
}

TEST(RetryPolicy, BackoffDoublesFromBaseAndCaps) {
  sim::RetryPolicy p;
  p.backoff_base = 10ms;
  p.backoff_cap = 70ms;
  EXPECT_EQ(p.backoff_for(2), 10ms);  // first retry
  EXPECT_EQ(p.backoff_for(3), 20ms);
  EXPECT_EQ(p.backoff_for(4), 40ms);
  EXPECT_EQ(p.backoff_for(5), 70ms);  // capped, not 80
  EXPECT_EQ(p.backoff_for(6), 70ms);
}

TEST(ClassifyFailure, SeparatesTransientFromDeterministic) {
  auto classify = [](auto&& make) {
    try {
      throw make();
    } catch (...) {
      return sim::classify_failure(std::current_exception());
    }
  };
  EXPECT_EQ(classify([] { return sim::TransientFault("flake"); }),
            sim::FailureClass::kTransient);
  EXPECT_EQ(classify([] { return std::bad_alloc(); }),
            sim::FailureClass::kTransient);
  EXPECT_EQ(classify([] { return trace::TraceFormatError("torn"); }),
            sim::FailureClass::kTransient);
  // Classified damage is deterministic — replaying corrupt blocks will
  // corrupt again; retrying would just reread the same bad bytes.
  EXPECT_EQ(classify([] {
              return trace::TraceCorruptError(
                  "bad block", trace::TraceDamage::kInteriorCorrupt, 3, 4096);
            }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(classify([] { return std::logic_error("bug"); }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(classify([] { return std::runtime_error("watchdog"); }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(sim::classify_failure(nullptr), sim::FailureClass::kNone);
}

TEST_F(SweepSchedulerTest, CleanSweepMatchesRunJobs) {
  const auto jobs = three_jobs();
  const auto direct = sim::run_jobs(jobs, 2);
  sim::SweepOptions opt;
  opt.threads = 2;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.completed, 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(rep.jobs[i].outcome.attempts, 1u);
    expect_results_identical(rep.jobs[i].result, direct[i].result);
  }
}

TEST_F(SweepSchedulerTest, TransientFaultIsRetriedToSuccess) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowTransient, 0ms},
                 {1, 2, sim::SweepFault::Kind::kThrowTransient, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.retry.max_attempts = 3;
  opt.retry.backoff_base = 1ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 3u);
  EXPECT_EQ(rep.jobs[0].outcome.attempts, 1u);
  // A retried job's statistics are still the deterministic ones.
  const auto clean = sim::run_jobs(jobs, 1);
  expect_results_identical(rep.jobs[1].result, clean[1].result);
}

TEST_F(SweepSchedulerTest, BackoffDoesNotBlockTheWorker) {
  // One worker, and job 0's first attempt fails transiently: its retry
  // waits out the backoff on the queue while the worker runs job 1, so
  // the journal's first record is job 1's. No timing is asserted — the
  // order holds however long job 1 runs; the backoff only has to outlast
  // the worker's step from requeueing job 0 to taking job 1.
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kThrowTransient, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 1;
  opt.retry.backoff_base = 250ms;
  opt.checkpoint_path = ck;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.jobs[0].outcome.attempts, 2u);

  const sim::CheckpointContents c = sim::load_checkpoint(ck);
  ASSERT_EQ(c.records.size(), 3u);
  EXPECT_EQ(c.records[0].substr(0, c.records[0].find('\t')), "1");

  const auto clean = sim::run_jobs(jobs, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_results_identical(rep.jobs[i].result, clean[i].result);
  }
}

TEST_F(SweepSchedulerTest, TransientExhaustionReportsFailedTransient) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  for (std::uint32_t a = 1; a <= 3; ++a) {
    plan.faults.push_back({0, a, sim::SweepFault::Kind::kThrowTransient, 0ms});
  }
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.retry.max_attempts = 3;
  opt.retry.backoff_base = 1ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.failed, 1u);
  const sim::SweepJobResult& bad = rep.jobs[0];
  EXPECT_EQ(bad.outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(bad.outcome.failure, sim::FailureClass::kTransient);
  EXPECT_EQ(bad.outcome.attempts, 3u);
  ASSERT_TRUE(bad.error);
  EXPECT_THROW(std::rethrow_exception(bad.error), sim::TransientFault);
}

TEST_F(SweepSchedulerTest, DeterministicFaultIsolatesOnlyThatJob) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 3;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(rep.jobs[1].outcome.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 1u);  // never retried
  // Siblings completed with the exact clean-run statistics.
  const auto clean = sim::run_jobs(jobs, 1);
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  expect_results_identical(rep.jobs[2].result, clean[2].result);
}

TEST_F(SweepSchedulerTest, DeadlineCancelsOverrunningJob) {
  // The injected 200ms delay runs inside the armed 30ms deadline, so the
  // token is set before the simulation's first stepped cycle: the
  // timeout is deterministic, not a race on simulation speed.
  auto jobs = three_jobs(200'000);
  jobs.resize(1);
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kDelay, 200ms}};
  sim::SweepOptions opt;
  opt.threads = 1;
  opt.job_deadline = 30ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.timed_out, 1u);
  const sim::SweepJobResult& jr = rep.jobs[0];
  EXPECT_EQ(jr.outcome.status, sim::JobStatus::kTimedOut);
  EXPECT_EQ(jr.outcome.attempts, 1u);  // terminal: no retry
  ASSERT_TRUE(jr.error);
  EXPECT_THROW(std::rethrow_exception(jr.error), core::SimulationAborted);
}

TEST_F(SweepSchedulerTest, SpuriousSupervisorWakeIsHarmless) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kSpuriousWake, 0ms},
                 {2, 1, sim::SweepFault::Kind::kSpuriousWake, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.job_deadline = 60s;  // generous: nothing should actually expire
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_TRUE(rep.all_completed());
}

TEST_F(SweepSchedulerTest, MaxFailuresDrainsRemainingJobsToSkipped) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 1;  // deterministic order: job 0 fails before 1 and 2 start
  opt.max_failures = 1;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 0u);  // never attempted
}

TEST_F(SweepSchedulerTest, ResumedSweepIsBitIdenticalToUninterrupted) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");

  // First run: job 2 fails deterministically, 0 and 1 are journaled.
  sim::SweepFaultPlan plan;
  plan.faults = {{2, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.checkpoint_path = ck;
  opt.faults = &plan;
  const sim::SweepReport partial = sim::run_sweep(jobs, opt);
  EXPECT_EQ(partial.completed, 2u);
  EXPECT_EQ(partial.failed, 1u);

  // Resume without the fault: only job 2 re-runs.
  sim::SweepOptions res;
  res.threads = 2;
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_TRUE(rep.jobs[0].outcome.from_checkpoint);
  EXPECT_TRUE(rep.jobs[1].outcome.from_checkpoint);
  EXPECT_FALSE(rep.jobs[2].outcome.from_checkpoint);

  const auto clean = sim::run_jobs(jobs, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_results_identical(rep.jobs[i].result, clean[i].result);
  }
}

TEST_F(SweepSchedulerTest, ResumeIgnoresTornTailLine) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.checkpoint_path = ck;
  (void)sim::run_sweep(jobs, opt);

  // Simulate a kill mid-append: a record line cut off before its
  // payload survives the FNV guard.
  {
    std::ofstream torn(ck, std::ios::app | std::ios::binary);
    torn << "R\t0123456789abcdef\t2\tgcc\tsamie\ttruncat";  // no newline
  }
  sim::SweepOptions res;
  res.threads = 2;
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  EXPECT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 3u);
  EXPECT_EQ(rep.checkpoint_lines_ignored, 1u);
}

TEST_F(SweepSchedulerTest, ResumeRefusesADifferentSweep) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt;
  opt.checkpoint_path = ck;
  (void)sim::run_sweep(jobs, opt);

  // Same file, different workload length => different fingerprint.
  const auto other = three_jobs(4000);
  sim::SweepOptions res;
  res.checkpoint_path = ck;
  res.resume = true;
  EXPECT_THROW((void)sim::run_sweep(other, res), sim::CheckpointError);

  // Different job count is refused too.
  auto fewer = three_jobs();
  fewer.pop_back();
  EXPECT_THROW((void)sim::run_sweep(fewer, res), sim::CheckpointError);
}

/// Runs `opt`'s sweep in a forked child that ignores SIGXFSZ and may
/// write files of at most `file_limit` bytes, so a journal write past the
/// limit fails with EFBIG instead of killing the child. Returns what the
/// child saw: "CheckpointError: <what>", "returned" or "other: <what>".
[[nodiscard]] std::string sweep_with_file_limit(
    const std::vector<sim::Job>& jobs, const sim::SweepOptions& opt,
    std::size_t file_limit) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe failed";
  const pid_t pid = ::fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    ::close(fds[0]);
    std::string seen;
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit lim{file_limit, file_limit};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) {
      seen = "setrlimit failed";
    } else {
      try {
        (void)sim::run_sweep(jobs, opt);
        seen = "returned";
      } catch (const sim::CheckpointError& e) {
        seen = std::string("CheckpointError: ") + e.what();
      } catch (const std::exception& e) {
        seen = std::string("other: ") + e.what();
      }
    }
    // A pipe is not a file: the size limit does not apply to it.
    (void)!::write(fds[1], seen.data(), seen.size());
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string seen;
  char buf[256];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    seen.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    seen += "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return seen;
}

TEST_F(SweepSchedulerTest, JournalThatDiesMidRunStopsTheSweepAndResumes) {
  // A journal whose disk fills after its first record: the next append
  // is torn and its fsync fails. Both runners must stop the sweep with
  // the CheckpointError (the in-thread runner through Lifecycle::abort),
  // and a resume must keep the durable record, ignore the torn line and
  // finish with the results of a run that never journaled. The resume's
  // own records must start on lines of their own, so a second resume
  // finds every job journaled.
  const auto jobs = three_jobs();
  const auto clean = sim::run_jobs(jobs, 1);

  // A whole journal of this sweep gives the header and record lengths.
  std::size_t header_bytes = 0;
  std::vector<std::size_t> record_bytes;
  {
    sim::SweepOptions opt;
    opt.threads = 2;
    opt.checkpoint_path = path("whole.ckpt");
    (void)sim::run_sweep(jobs, opt);
    std::ifstream in(opt.checkpoint_path);
    for (std::string line; std::getline(in, line);) {
      if (line[0] == 'R') {
        record_bytes.push_back(line.size() + 1);
      } else {
        header_bytes += line.size() + 1;
      }
    }
  }
  ASSERT_EQ(record_bytes.size(), jobs.size());
  const auto [shortest, longest] =
      std::minmax_element(record_bytes.begin(), record_bytes.end());
  // A record's wall time is a hexfloat, whose length varies run to run.
  constexpr std::size_t kWallSlack = 32;
  const std::size_t limit = header_bytes + *longest + kWallSlack;
  ASSERT_LT(*longest + kWallSlack, 2 * *shortest)
      << "the second record would fit whole";

  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "forked-child runner" : "in-thread runner");
    sim::SweepOptions opt;
    (isolate ? opt.isolate_procs : opt.threads) = 2;
    opt.checkpoint_path = path(isolate ? "isolate.ckpt" : "threads.ckpt");
    EXPECT_EQ(sweep_with_file_limit(jobs, opt, limit),
              "CheckpointError: " + opt.checkpoint_path +
                  ": cannot sync: File too large");

    sim::SweepOptions res = opt;
    res.resume = true;
    const sim::SweepReport rep = sim::run_sweep(jobs, res);
    ASSERT_TRUE(rep.all_completed());
    EXPECT_EQ(rep.checkpoint_lines_ignored, 1u);
    EXPECT_EQ(rep.resumed, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_results_identical(rep.jobs[i].result, clean[i].result);
    }

    const sim::SweepReport again = sim::run_sweep(jobs, res);
    ASSERT_TRUE(again.all_completed());
    EXPECT_EQ(again.checkpoint_lines_ignored, 0u);
    EXPECT_EQ(again.resumed, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_results_identical(again.jobs[i].result, clean[i].result);
    }
  }
}

TEST_F(SweepSchedulerTest, MiniSuiteFingerprintIsPinned) {
  // The CI mini-suite (samie_sim --insts=20000 gcc ammp mcf): this value
  // is in the H line of every journal such a sweep has written, so any
  // change to what sweep_fingerprint hashes makes those journals fail
  // --resume with "different sweep".
  EXPECT_EQ(sim::sweep_fingerprint(three_jobs(20'000)), 0x17566cd02aec9d23ULL);
}

TEST_F(SweepSchedulerTest, CancellationTokenAbortsASimulationDirectly) {
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = 50'000;
  const trace::TraceSource src = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), cfg.seed, cfg.instructions);
  std::atomic<bool> cancel{true};  // pre-set: aborts on the first cycle
  cfg.core.should_abort = &cancel;
  EXPECT_THROW((void)sim::run_simulation(cfg, src.view()),
               core::SimulationAborted);

  // An unset token changes nothing — bit-identical to no token at all.
  cancel.store(false);
  const sim::SimResult with_token = sim::run_simulation(cfg, src.view());
  cfg.core.should_abort = nullptr;
  const sim::SimResult without = sim::run_simulation(cfg, src.view());
  expect_results_identical(with_token, without);
}

TEST_F(SweepSchedulerTest, FailureReportNamesEveryNonCompletedJob) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt;
  opt.threads = 1;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  std::ostringstream os;
  sim::print_failure_report(os, rep);
  const std::string text = os.str();
  EXPECT_NE(text.find("job=1"), std::string::npos);
  EXPECT_NE(text.find("program=ammp"), std::string::npos);
  EXPECT_NE(text.find("outcome=failed"), std::string::npos);
  EXPECT_NE(text.find("class=deterministic"), std::string::npos);
  EXPECT_NE(text.find("2/3 completed"), std::string::npos);
  EXPECT_EQ(text.find("job=0"), std::string::npos);  // completed: no line
}

// -- checkpoint layer --------------------------------------------------------

TEST_F(SweepSchedulerTest, CheckpointRoundTripsRecords) {
  const std::string ck = path("plain.ckpt");
  {
    auto w = sim::CheckpointWriter::create(ck, 7, 0xdeadbeefULL);
    w.append_record("first");
    w.append_record("second\twith\ttabs");
  }
  const sim::CheckpointContents c = sim::load_checkpoint(ck);
  EXPECT_EQ(c.njobs, 7u);
  EXPECT_EQ(c.fingerprint, 0xdeadbeefULL);
  ASSERT_EQ(c.records.size(), 2u);
  EXPECT_EQ(c.records[0], "first");
  EXPECT_EQ(c.records[1], "second\twith\ttabs");
  EXPECT_EQ(c.ignored_lines, 0u);
}

TEST_F(SweepSchedulerTest, CheckpointRejectsCorruptGuardAndBadHeader) {
  const std::string ck = path("guard.ckpt");
  {
    auto w = sim::CheckpointWriter::create(ck, 1, 1);
    w.append_record("payload");
  }
  // Flip a payload byte: the record's FNV guard must reject it.
  {
    std::fstream f(ck, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  const sim::CheckpointContents c = sim::load_checkpoint(ck);
  EXPECT_TRUE(c.records.empty());
  EXPECT_EQ(c.ignored_lines, 1u);

  // A wrong magic line is fatal, not skippable.
  const std::string bad = path("bad.ckpt");
  std::ofstream(bad) << "not a checkpoint\n";
  EXPECT_THROW((void)sim::load_checkpoint(bad), sim::CheckpointError);
  EXPECT_THROW((void)sim::load_checkpoint(path("missing.ckpt")),
               sim::CheckpointError);
}

TEST(SimResultRoundTrip, IsBitExactForAwkwardDoubles) {
  sim::SimResult r{};
  r.core.cycles = 123456789;
  r.core.committed = 0xffffffffffffffffULL;
  r.core.ipc = 1.0 / 3.0;
  r.lsq_energy_nj = 0.1;
  r.lsq_distrib_nj = 1e-300;          // subnormal-adjacent
  r.lsq_shared_nj = 5e-324;           // smallest denormal
  r.lsq_addrbuf_nj = 1.7976931348623157e308;  // DBL_MAX
  r.lsq_bus_nj = -0.0;
  r.dcache_energy_nj = 2.5;
  r.shared_occupancy_mean = 0.30000000000000004;
  r.buffer_nonempty_frac = 1.0 - 1e-16;
  r.shared_occupancy_max = 42;
  const std::string text = sim::serialize_sim_result(r);
  sim::SimResult back{};
  ASSERT_TRUE(sim::parse_sim_result(text, back));
  EXPECT_EQ(sim::serialize_sim_result(back), text);
  // Negative zero survives (hexfloat keeps the sign bit).
  EXPECT_TRUE(std::signbit(back.lsq_bus_nj));
  EXPECT_EQ(back.core.committed, 0xffffffffffffffffULL);

  // Wrong field count or a garbage token parses as torn, never as a
  // silently-misassigned result.
  EXPECT_FALSE(sim::parse_sim_result(text + " 7", back));
  EXPECT_FALSE(sim::parse_sim_result("1 2 3", back));
  std::string mangled = text;
  mangled.replace(mangled.find(' ') + 1, 1, "q");
  EXPECT_FALSE(sim::parse_sim_result(mangled, back));
}

// ------------------------------------------------- trace-damage outcomes --
//
// Injected I/O faults (short-read, bit-flip) surface as the structured
// kTraceDamaged outcome: deterministic (never retried), quarantining
// only the job whose replay touched the damage, journaled as a 'D'
// record and sealed on resume — while every undamaged job's results
// stay byte-identical to a clean sweep's.

class TraceDamageSweepTest : public SweepSchedulerTest {
 protected:
  /// Three replay jobs over small recorded v2 traces.
  [[nodiscard]] std::vector<sim::Job> trace_jobs() const {
    std::vector<sim::Job> jobs;
    for (const char* p : {"gcc", "ammp", "mcf"}) {
      trace::WorkloadGenerator gen(trace::spec2000_profile(p), 5);
      const trace::Trace t = gen.generate(3000);
      const std::string f = path(std::string(p) + ".samt");
      trace::write_samt_v2(f, trace::TraceView(t.ops.data(), t.ops.size()), p,
                           5, 512);
      sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
      cfg.instructions = 3000;
      cfg.trace_path = f;
      jobs.push_back(sim::Job{p, cfg, "samie"});
    }
    return jobs;
  }
};

TEST_F(TraceDamageSweepTest, ShortReadFaultQuarantinesOnlyThatJob) {
  const auto jobs = trace_jobs();
  const auto clean = sim::run_jobs(jobs, 1);
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kShortRead, 0ms, 100}};
  sim::SweepOptions opt;
  opt.threads = 2;
  opt.retry.max_attempts = 3;  // damage must NOT consume retries
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.trace_damaged, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(oc.attempts, 1u);  // deterministic: one attempt, no retry
  EXPECT_EQ(oc.damage, trace::TraceDamage::kTornTail);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  // The undamaged jobs are byte-identical to a clean run.
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  expect_results_identical(rep.jobs[2].result, clean[2].result);
  // The failure report names the damage.
  std::ostringstream os;
  sim::print_failure_report(os, rep);
  EXPECT_NE(os.str().find("trace-damaged"), std::string::npos);
  EXPECT_NE(os.str().find("damage=torn-tail"), std::string::npos);
}

TEST_F(TraceDamageSweepTest, BitFlipFaultReportsBlockAndOffset) {
  const auto jobs = trace_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kBitFlipBlock, 0ms, 2}};
  sim::SweepOptions opt;
  opt.threads = 1;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  const sim::JobOutcome& oc = rep.jobs[0].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(oc.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(oc.damage_block, 2u);
  EXPECT_GT(oc.damage_offset, 0u);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
}

TEST_F(TraceDamageSweepTest, DamageIsJournaledAndSealedOnResume) {
  const auto jobs = trace_jobs();
  const std::string ckpt = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults = {{2, 1, sim::SweepFault::Kind::kShortRead, 0ms, 0}};
  {
    sim::SweepOptions opt;
    opt.threads = 1;
    opt.checkpoint_path = ckpt;
    opt.faults = &plan;
    const sim::SweepReport rep = sim::run_sweep(jobs, opt);
    EXPECT_EQ(rep.trace_damaged, 1u);
    EXPECT_EQ(rep.damage_sealed, 0u);  // found live, not from the journal
  }
  // The journal carries a guarded 'D' record for the damaged job.
  const sim::CheckpointContents c = sim::load_checkpoint(ckpt);
  EXPECT_EQ(c.records.size(), 2u);
  ASSERT_EQ(c.damaged.size(), 1u);
  EXPECT_NE(c.damaged[0].find("mcf"), std::string::npos);

  // Resume with no faults, under each runner: the damaged job is sealed
  // from the journal, not re-run (the trace is clean now — a resume must
  // still not trust it, because the damage decision was already
  // journaled).
  for (const unsigned isolate_procs : {0u, 1u}) {
    sim::SweepOptions opt;
    opt.threads = 1;
    opt.isolate_procs = isolate_procs;
    opt.checkpoint_path = ckpt;
    opt.resume = true;
    const sim::SweepReport rep = sim::run_sweep(jobs, opt);
    EXPECT_EQ(rep.completed, 2u) << "isolate_procs=" << isolate_procs;
    EXPECT_EQ(rep.resumed, 2u);
    EXPECT_EQ(rep.trace_damaged, 1u);
    EXPECT_EQ(rep.damage_sealed, 1u);
    EXPECT_TRUE(rep.jobs[2].outcome.from_checkpoint);
    EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kTraceDamaged);
    EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  }
}

TEST_F(TraceDamageSweepTest, RejectsTracelessIoFaults) {
  // A read-side I/O fault aimed at a job with no trace file has nothing
  // to corrupt: misconfiguration, fail fast.
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = 1000;
  const std::vector<sim::Job> generated{sim::Job{"gcc", cfg, "samie"}};
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kShortRead, 0ms, 0}};
  sim::SweepOptions opt;
  opt.faults = &plan;
  EXPECT_THROW((void)sim::run_sweep(generated, opt), std::invalid_argument);
}

}  // namespace
}  // namespace samie

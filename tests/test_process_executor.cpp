// Tests for process-isolated sweep execution: the guarded line a child
// answers with and the crash-forensics wire record, isolated-vs-pool
// bit-identity across every LSQ kind, equal outcomes for the same
// faults under both runners, containment of the isolation-only fault
// kinds (crash, oom, spin, torn-frame), deadlines (the child stops
// itself; a spinning one is SIGKILLed after the grace; an outside
// SIGTERM is a kill, not a crash), in-child transient retry, quarantine
// on resume in both directions (isolate journal → pool resume and pool
// journal → isolate resume), drain semantics, and the run_sweep
// pre-flight validation. Faults are injected via SweepFaultPlan —
// nothing here depends on a real bug to crash.
//
// The crash and oom tests are skipped under AddressSanitizer: ASan owns
// SIGSEGV reporting, and its 20 TB shadow reservation cannot coexist
// with an RLIMIT_AS jail.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/proc_frame.h"
#include "src/sim/process_executor.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload.h"

namespace samie {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

class ProcessExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_isolate_" +
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

  [[nodiscard]] static std::vector<sim::Job> three_jobs(
      std::uint64_t insts = 3000,
      sim::LsqChoice lsq = sim::LsqChoice::kSamie) {
    sim::SimConfig cfg = sim::paper_config(lsq);
    cfg.instructions = insts;
    std::vector<sim::Job> jobs;
    for (const char* p : {"gcc", "ammp", "mcf"}) {
      jobs.push_back(sim::Job{p, cfg, sim::lsq_choice_name(lsq)});
    }
    return jobs;
  }

  fs::path dir_;
};

void expect_results_identical(const sim::SimResult& a,
                              const sim::SimResult& b) {
  EXPECT_EQ(sim::serialize_sim_result(a), sim::serialize_sim_result(b));
}

// -- wire records ------------------------------------------------------------

TEST(GuardedLine, RoundTripsAndRefusesEveryDefect) {
  const std::string payload = "12 34 0x1.8p+1\twith a tab";
  const std::string line = sim::guarded_line('R', payload);
  ASSERT_EQ(line.back(), '\n');
  EXPECT_EQ(sim::parse_guarded_line(line, 'R'), payload);

  // Cut anywhere, the newline included: refused, never misread.
  for (std::size_t n = 0; n < line.size(); ++n) {
    EXPECT_EQ(sim::parse_guarded_line(line.substr(0, n), 'R'), std::nullopt)
        << "prefix of " << n << " bytes";
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string bad = line;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_EQ(sim::parse_guarded_line(bad, 'R'), std::nullopt)
        << "flip at byte " << i;
  }
  for (const char* tail : {"x", "\n", "R\t", "\nR"}) {
    EXPECT_EQ(sim::parse_guarded_line(line + tail, 'R'), std::nullopt)
        << "trailing '" << tail << "'";
  }
  EXPECT_EQ(sim::parse_guarded_line(line, 'E'), std::nullopt);
  EXPECT_EQ(sim::parse_guarded_line(sim::guarded_line('E', payload), 'R'),
            std::nullopt);
}

TEST(ProcFrame, CrashWireRoundTripsAndClampsFrameCount) {
  sim::CrashWire w;
  w.signal = SIGSEGV;
  w.nframes = 2;
  w.fault_addr = 0x2a;
  w.frames[0] = 0x1000;
  w.frames[1] = 0x2000;
  std::string bytes(reinterpret_cast<const char*>(&w), sizeof w);
  const auto dec = sim::decode_crash_wire(bytes);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->signal, SIGSEGV);
  EXPECT_EQ(dec->fault_addr, 0x2au);
  EXPECT_EQ(dec->nframes, 2);
  EXPECT_EQ(dec->frames[1], 0x2000u);

  EXPECT_FALSE(sim::decode_crash_wire(bytes.substr(0, 16)).has_value());
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(sim::decode_crash_wire(bad).has_value());

  w.nframes = 10'000;  // a corrupt count must clamp, not index out of bounds
  std::string over(reinterpret_cast<const char*>(&w), sizeof w);
  const auto clamped = sim::decode_crash_wire(over);
  ASSERT_TRUE(clamped.has_value());
  EXPECT_EQ(clamped->nframes, sim::kCrashMaxFrames);
}

// -- exit codes and validation -----------------------------------------------

TEST(SweepExitCode, DistinguishesCleanPartialAndContained) {
  sim::SweepReport rep;
  rep.jobs.resize(2);
  rep.completed = 2;
  EXPECT_EQ(sim::sweep_exit_code(rep), 0);
  rep.completed = 1;
  rep.failed = 1;
  EXPECT_EQ(sim::sweep_exit_code(rep), 2);
  rep.failed = 0;
  rep.crashed = 1;
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  rep.crashed = 0;
  rep.resource_exceeded = 1;
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
}

TEST(SignalName, NamesCommonSignalsAndFallsBackToNumbers) {
  EXPECT_EQ(sim::signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(sim::signal_name(SIGXCPU), "SIGXCPU");
  EXPECT_EQ(sim::signal_name(64), "SIG64");
}

TEST_F(ProcessExecutorTest, IsolationOnlyFaultsAreRejected) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kCrash, 0ms});
  sim::SweepOptions no_iso;
  no_iso.threads = 2;
  no_iso.faults = &plan;
  EXPECT_THROW((void)sim::run_sweep(jobs, no_iso), std::invalid_argument);

  sim::SweepFaultPlan oom_plan;
  oom_plan.faults.push_back({1, 1, sim::SweepFault::Kind::kOom, 0ms});
  sim::SweepOptions no_jail;
  no_jail.isolate_procs = 2;
  no_jail.faults = &oom_plan;  // no job_mem_mb
  EXPECT_THROW((void)sim::run_sweep(jobs, no_jail), std::invalid_argument);
}

// -- bit-identity ------------------------------------------------------------

TEST_F(ProcessExecutorTest, IsolatedResultsAreBitIdenticalAcrossLsqKinds) {
  for (const sim::LsqChoice lsq :
       {sim::LsqChoice::kConventional, sim::LsqChoice::kUnbounded,
        sim::LsqChoice::kArb, sim::LsqChoice::kSamie}) {
    const auto jobs = three_jobs(3000, lsq);
    sim::SweepOptions pool;
    pool.threads = 2;
    const sim::SweepReport a = sim::run_sweep(jobs, pool);
    sim::SweepOptions iso;
    iso.isolate_procs = 2;
    const sim::SweepReport b = sim::run_sweep(jobs, iso);
    ASSERT_TRUE(a.all_completed());
    ASSERT_TRUE(b.all_completed());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_results_identical(a.jobs[i].result, b.jobs[i].result);
    }
  }
}

TEST_F(ProcessExecutorTest, BothRunnersEndTheSameFaultsTheSameWay) {
  // One sweep with a job retried to success, one failed for good and one
  // cancelled at its deadline. The two runners classify failures in one
  // place, so every outcome field a report prints must agree.
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({0, 1, sim::SweepFault::Kind::kThrowTransient, 0ms});
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms});
  plan.faults.push_back({2, 1, sim::SweepFault::Kind::kDelay, 800ms});
  sim::SweepOptions pool;
  pool.threads = 2;
  pool.faults = &plan;
  pool.retry.backoff_base = 1ms;
  pool.job_deadline = 300ms;
  pool.kill_grace = 30s;  // the deadline must unwind, not kill
  sim::SweepOptions iso = pool;
  iso.threads = 0;
  iso.isolate_procs = 2;
  const sim::SweepReport a = sim::run_sweep(jobs, pool);
  const sim::SweepReport b = sim::run_sweep(jobs, iso);

  EXPECT_EQ(a.jobs[0].outcome.status, sim::JobStatus::kCompleted);
  EXPECT_EQ(a.jobs[0].outcome.attempts, 2u);
  EXPECT_EQ(a.jobs[1].outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(a.jobs[2].outcome.status, sim::JobStatus::kTimedOut);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const sim::JobOutcome& x = a.jobs[i].outcome;
    const sim::JobOutcome& y = b.jobs[i].outcome;
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.failure, y.failure);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.what, y.what);
    if (a.jobs[i].completed() && b.jobs[i].completed()) {
      expect_results_identical(a.jobs[i].result, b.jobs[i].result);
    }
  }
}

TEST_F(ProcessExecutorTest, TransientFaultRetriesInsideAFreshChild) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kThrowTransient, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  iso.retry.backoff_base = 1ms;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 2u);

  const sim::SweepReport clean =
      sim::run_sweep(jobs, [] { sim::SweepOptions o; o.threads = 2; return o; }());
  expect_results_identical(rep.jobs[1].result, clean.jobs[1].result);
}

// -- containment -------------------------------------------------------------

TEST_F(ProcessExecutorTest, CrashIsContainedAndCarriesForensics) {
  if (kAsan) GTEST_SKIP() << "ASan owns SIGSEGV reporting";
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kCrash, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kCrashed);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(oc.attempts, 1u);  // deterministic: never retried
  EXPECT_EQ(oc.term_signal, SIGSEGV);
  ASSERT_TRUE(oc.crash.present());
  EXPECT_EQ(oc.crash.signal, SIGSEGV);
  EXPECT_EQ(oc.crash.fault_addr, 0x2au);
  EXPECT_FALSE(oc.crash.frames.empty());

  // Survivors are bit-identical to a clean run's rows.
  sim::SweepOptions pool;
  pool.threads = 2;
  const sim::SweepReport clean = sim::run_sweep(jobs, pool);
  expect_results_identical(rep.jobs[0].result, clean.jobs[0].result);
  expect_results_identical(rep.jobs[2].result, clean.jobs[2].result);
}

TEST_F(ProcessExecutorTest, OomBombHitsTheJailNotTheHost) {
  if (kAsan) GTEST_SKIP() << "RLIMIT_AS cannot coexist with the ASan shadow";
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kOom, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.job_mem_mb = 512;
  iso.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.resource_exceeded, 1u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kResourceExceeded);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_NE(oc.what.find("RLIMIT_AS"), std::string::npos) << oc.what;
}

TEST_F(ProcessExecutorTest, SpinPastTheDeadlineIsHardKilledAfterTheGrace) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kSpin, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  iso.job_deadline = 1000ms;
  iso.kill_grace = 300ms;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.timed_out, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTimedOut);
  EXPECT_EQ(oc.term_signal, SIGKILL);
  EXPECT_NE(oc.what.find("grace period past its deadline"), std::string::npos)
      << oc.what;
  EXPECT_GE(oc.wall_seconds, 1.3);  // the grace counts from the deadline
}

TEST_F(ProcessExecutorTest, SpinDiesOnTheCpuJailWithoutADeadline) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kSpin, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.job_cpu_s = 1;  // no wall deadline: only RLIMIT_CPU ends the spin
  iso.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.resource_exceeded, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kResourceExceeded);
  EXPECT_EQ(oc.term_signal, SIGXCPU);
}

TEST_F(ProcessExecutorTest, ChildStopsItselfAtItsDeadline) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kDelay, 1200ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  iso.job_deadline = 150ms;
  iso.kill_grace = 30s;  // generous: the child must stop on its own
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.timed_out, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTimedOut);
  // Exit 0 with a timed-out answer, not a kill: the child's own check
  // between lane turns stopped it.
  EXPECT_EQ(oc.term_signal, 0);
  EXPECT_EQ(oc.what, "stopped at its job deadline (150 ms)");
}

TEST(ProcessExecutor, SigtermFromOutsideIsAKillNotACrash) {
  // The supervisor never sends SIGTERM, SIGINT or SIGHUP; one from an
  // operator, a shutdown or a closed terminal must not quarantine a
  // healthy job as a crash.
  for (const int sig : {SIGTERM, SIGINT, SIGHUP}) {
    SCOPED_TRACE(sim::signal_name(sig));
    sim::ProcessExecutor exec;
    exec.spawn(
        7,
        [sig] {
          // A child inherits an ignored disposition (a background job's
          // SIGINT); restore the default so the signal ends it.
          ::signal(sig, SIG_DFL);
          ::raise(sig);
          return std::string("unreachable");
        },
        sim::ChildLimits{});
    std::optional<sim::ProcessExecutor::Event> ev;
    while (!(ev = exec.poll())) std::this_thread::sleep_for(1ms);
    EXPECT_EQ(ev->key, 7u);
    EXPECT_EQ(ev->fate, sim::ProcessExecutor::FateKind::kKilled);
    EXPECT_EQ(ev->signal, sig);
    EXPECT_EQ(ev->what, "terminated (" + sim::signal_name(sig) +
                            " not sent by the supervisor)");
    EXPECT_TRUE(ev->answer.empty());
  }
}

TEST_F(ProcessExecutorTest, TornFrameIsAStructuredFailureNotAHang) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kTornFrame, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.failed, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kFailed);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_NE(oc.what.find("frame"), std::string::npos) << oc.what;
}

TEST_F(ProcessExecutorTest, DrainSkipsRemainingJobsAfterMaxFailures) {
  if (kAsan) GTEST_SKIP() << "ASan owns SIGSEGV reporting";
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults.push_back({0, 1, sim::SweepFault::Kind::kCrash, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 1;  // serial: the crash lands before jobs 1..2 start
  iso.faults = &plan;
  iso.max_failures = 1;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kSkipped);
}

// -- quarantine and cross-executor resume ------------------------------------

TEST_F(ProcessExecutorTest, CrashIsQuarantinedAndResumeSkipsIt) {
  if (kAsan) GTEST_SKIP() << "ASan owns SIGSEGV reporting";
  const auto jobs = three_jobs();
  const std::string ckpt = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kCrash, 0ms});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  iso.checkpoint_path = ckpt;
  const sim::SweepReport first = sim::run_sweep(jobs, iso);
  ASSERT_EQ(first.crashed, 1u);

  // The journal carries a validated 'Q' line with the forensics.
  const sim::CheckpointContents c = sim::load_checkpoint(ckpt);
  ASSERT_EQ(c.quarantined.size(), 1u);
  EXPECT_EQ(c.records.size(), 2u);

  // Resume through the in-process pool, no faults: the poison job must
  // NOT be re-run (it would crash the pool's own process).
  sim::SweepOptions pool;
  pool.threads = 2;
  pool.checkpoint_path = ckpt;
  pool.resume = true;
  const sim::SweepReport resumed = sim::run_sweep(jobs, pool);
  EXPECT_EQ(resumed.completed, 2u);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.crashed, 1u);
  EXPECT_EQ(resumed.quarantined, 1u);
  const sim::JobOutcome& oc = resumed.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kCrashed);
  EXPECT_TRUE(oc.from_checkpoint);
  EXPECT_EQ(oc.term_signal, SIGSEGV);
  ASSERT_TRUE(oc.crash.present());
  EXPECT_EQ(oc.crash.fault_addr, 0x2au);
  EXPECT_FALSE(oc.crash.frames.empty());
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    expect_results_identical(resumed.jobs[i].result, first.jobs[i].result);
  }

  // The journal the pool resumed from seals the same way back under
  // the forked-child runner.
  iso.faults = nullptr;
  iso.resume = true;
  const sim::SweepReport again = sim::run_sweep(jobs, iso);
  EXPECT_EQ(again.resumed, 2u);
  EXPECT_EQ(again.quarantined, 1u);
  EXPECT_EQ(again.jobs[1].outcome.status, sim::JobStatus::kCrashed);
}

TEST_F(ProcessExecutorTest, IsolateResumesAPoolCheckpointBitIdentically) {
  const auto jobs = three_jobs();
  const std::string ckpt = path("sweep.ckpt");
  sim::SweepFaultPlan plan;  // fail job 2 so the pool run is partial
  plan.faults.push_back({2, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms});
  sim::SweepOptions pool;
  pool.threads = 2;
  pool.faults = &plan;
  pool.checkpoint_path = ckpt;
  const sim::SweepReport first = sim::run_sweep(jobs, pool);
  ASSERT_EQ(first.completed, 2u);

  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.checkpoint_path = ckpt;
  iso.resume = true;
  const sim::SweepReport resumed = sim::run_sweep(jobs, iso);
  ASSERT_TRUE(resumed.all_completed());
  EXPECT_EQ(resumed.resumed, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(resumed.jobs[i].outcome.from_checkpoint);
    expect_results_identical(resumed.jobs[i].result, first.jobs[i].result);
  }
}

TEST_F(ProcessExecutorTest, TraceDamageIsDetectedParentSideWithoutAChild) {
  // An I/O fault on a replay job is consumed when the *parent* acquires
  // the trace before forking — damage never spawns a child, and the
  // outcome carries the same structured fields as the in-process pool's.
  std::vector<sim::Job> jobs = three_jobs();
  for (sim::Job& j : jobs) {
    trace::WorkloadGenerator gen(trace::spec2000_profile(j.program), 5);
    const trace::Trace t = gen.generate(3000);
    const std::string f = path(j.program + ".samt");
    trace::write_samt_v2(f, trace::TraceView(t.ops.data(), t.ops.size()),
                         j.program, 5, 512);
    j.config.trace_path = f;
  }

  sim::SweepFaultPlan plan;
  plan.faults.push_back({1, 1, sim::SweepFault::Kind::kShortRead, 0ms, 0});
  sim::SweepOptions iso;
  iso.isolate_procs = 2;
  iso.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, iso);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.trace_damaged, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(oc.damage, trace::TraceDamage::kTornTail);
  EXPECT_EQ(oc.term_signal, 0);  // no child was ever forked for it
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
}

}  // namespace
}  // namespace samie

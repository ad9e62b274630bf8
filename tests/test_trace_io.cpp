// Tests for the SAMT binary trace format and the trace-source layer:
// v2 writes are byte-stable, recorded files replay bit-identically to
// in-memory simulation for every LSQ kind, generated sources hold the
// generator's records byte for byte, malformed files (a retired
// version-1 file included) are rejected with clear errors, and the text
// importer builds traces that satisfy the generator's invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/perf_harness.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"
#include "tests/trace_thrown.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_trace_io_" +
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

  [[nodiscard]] static trace::Trace small_trace(std::uint64_t n = 5000) {
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 7);
    trace::Trace t = gen.generate(n);
    t.name = "gcc";
    t.seed = 7;
    return t;
  }

  [[nodiscard]] static std::vector<char> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  /// `bytes` written to `file` in the test directory; returns its path.
  [[nodiscard]] std::string write_bytes(const std::string& file,
                                        const std::vector<char>& bytes) const {
    const std::string p = path(file);
    std::ofstream(p, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  fs::path dir_;
};

void expect_ops_equal(trace::TraceView a, trace::TraceView b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "op " << i;
    ASSERT_EQ(a[i].value, b[i].value) << "op " << i;
    ASSERT_EQ(static_cast<int>(a[i].op), static_cast<int>(b[i].op)) << "op " << i;
    ASSERT_EQ(a[i].mem_size, b[i].mem_size) << "op " << i;
    ASSERT_EQ(a[i].src1, b[i].src1) << "op " << i;
    ASSERT_EQ(a[i].src2, b[i].src2) << "op " << i;
    ASSERT_EQ(a[i].dst, b[i].dst) << "op " << i;
    ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
  }
}

/// Full bitwise comparison of two SimResults (every counter and every
/// double must match exactly — replay is contractually deterministic).
void expect_results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.core.cycles, b.core.cycles);
  EXPECT_EQ(a.core.committed, b.core.committed);
  EXPECT_EQ(a.core.ipc, b.core.ipc);
  EXPECT_EQ(a.core.mispredict_squashes, b.core.mispredict_squashes);
  EXPECT_EQ(a.core.deadlock_flushes, b.core.deadlock_flushes);
  EXPECT_EQ(a.core.loads_executed, b.core.loads_executed);
  EXPECT_EQ(a.core.stores_committed, b.core.stores_committed);
  EXPECT_EQ(a.core.forwarded_loads, b.core.forwarded_loads);
  EXPECT_EQ(a.core.partial_forward_waits, b.core.partial_forward_waits);
  EXPECT_EQ(a.core.agen_gated, b.core.agen_gated);
  EXPECT_EQ(a.core.value_mismatches, b.core.value_mismatches);
  EXPECT_EQ(a.core.dcache_way_known, b.core.dcache_way_known);
  EXPECT_EQ(a.core.dcache_full, b.core.dcache_full);
  EXPECT_EQ(a.core.dtlb_accesses, b.core.dtlb_accesses);
  EXPECT_EQ(a.core.dtlb_cached, b.core.dtlb_cached);
  EXPECT_EQ(a.lsq_energy_nj, b.lsq_energy_nj);
  EXPECT_EQ(a.lsq_distrib_nj, b.lsq_distrib_nj);
  EXPECT_EQ(a.lsq_shared_nj, b.lsq_shared_nj);
  EXPECT_EQ(a.lsq_addrbuf_nj, b.lsq_addrbuf_nj);
  EXPECT_EQ(a.lsq_bus_nj, b.lsq_bus_nj);
  EXPECT_EQ(a.dcache_energy_nj, b.dcache_energy_nj);
  EXPECT_EQ(a.dtlb_energy_nj, b.dtlb_energy_nj);
  EXPECT_EQ(a.area_total, b.area_total);
  EXPECT_EQ(a.area_distrib, b.area_distrib);
  EXPECT_EQ(a.area_shared, b.area_shared);
  EXPECT_EQ(a.area_addrbuf, b.area_addrbuf);
  EXPECT_EQ(a.shared_occupancy_mean, b.shared_occupancy_mean);
  EXPECT_EQ(a.shared_occupancy_max, b.shared_occupancy_max);
  EXPECT_EQ(a.buffer_nonempty_frac, b.buffer_nonempty_frac);
  EXPECT_EQ(a.buffer_occupancy_mean, b.buffer_occupancy_mean);
  EXPECT_EQ(a.l1d_hits, b.l1d_hits);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);
  EXPECT_EQ(a.dtlb_hits, b.dtlb_hits);
  EXPECT_EQ(a.dtlb_misses, b.dtlb_misses);
  EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
  EXPECT_EQ(a.branch_lookups, b.branch_lookups);
}

// ------------------------------------------------------------ round trip --

TEST_F(TraceIoTest, RoundTripIsByteStable) {
  const trace::Trace t = small_trace();
  trace::write_samt_v2(path("a.samt"), t, t.name, t.seed);
  // Same trace written again: byte-identical.
  trace::write_samt_v2(path("b.samt"), t, t.name, t.seed);
  EXPECT_EQ(slurp(path("a.samt")), slurp(path("b.samt")));
  // Read back and re-written: still byte-identical.
  const trace::Trace back = trace::TraceV2Reader(path("a.samt")).read_all();
  trace::write_samt_v2(path("c.samt"), back, back.name, back.seed);
  EXPECT_EQ(slurp(path("a.samt")), slurp(path("c.samt")));
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const trace::Trace empty{.name = "void", .seed = 3, .ops = {}};
  trace::write_samt_v2(path("e.samt"), empty, empty.name, empty.seed);
  const trace::TraceSource opened = trace::TraceSource::open_samt(path("e.samt"));
  EXPECT_EQ(opened.size(), 0U);
  EXPECT_TRUE(opened.view().empty());
  EXPECT_EQ(opened.name(), "void");
  EXPECT_EQ(opened.seed(), 3U);
}

// -------------------------------------------------------- reject corrupt --

TEST_F(TraceIoTest, RejectsBadMagic) {
  const trace::Trace t = small_trace(100);
  trace::write_samt_v2(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes[0] = 'X';
  const std::string p = write_bytes("bad.samt", bytes);
  for (const fixture::Thrown& e :
       {fixture::thrown_by([&] { return trace::read_samt_header(p); }),
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); })}) {
    EXPECT_EQ(e.type, "TraceFormatError");
    EXPECT_NE(e.what.find("bad magic"), std::string::npos) << e.what;
  }
}

TEST_F(TraceIoTest, RejectsWrongVersion) {
  const trace::Trace t = small_trace(100);
  trace::write_samt_v2(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes[8] = 99;  // version field (offset 8, little-endian u32)
  const std::string p = write_bytes("v99.samt", bytes);
  for (const fixture::Thrown& e :
       {fixture::thrown_by([&] { return trace::read_samt_header(p); }),
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); })}) {
    EXPECT_EQ(e.type, "TraceFormatError");
    EXPECT_NE(e.what.find("version 99"), std::string::npos) << e.what;
  }
}

TEST_F(TraceIoTest, RejectsVersionOneWithTheUpgradeCommit) {
  // A header that says version 1, as the retired flat-array format
  // wrote it, followed by three zero 40-byte records. Every library
  // entry point refuses it with one message naming the commit whose
  // samt_convert upgrades it; none of them classifies it as damage.
  trace::SamtHeader h{};
  std::memcpy(h.magic, trace::kSamtMagic, sizeof h.magic);
  h.version = trace::kSamtVersion1;
  h.record_bytes = trace::kSamtRecordBytes;
  h.count = 3;
  std::vector<char> bytes(sizeof h + 3 * trace::kSamtRecordBytes, 0);
  std::memcpy(bytes.data(), &h, sizeof h);
  const std::string p = write_bytes("v1.samt", bytes);
  const std::string expected =
      p + ": SAMT version 1 is no longer read; convert the file to version "
          "2 with samt_convert built at commit " +
      trace::kSamtV1ConvertCommit + ", the last that reads version 1";
  for (const fixture::Thrown& e :
       {fixture::thrown_by([&] { return trace::read_samt_header(p); }),
        fixture::thrown_by([&] { return trace::TraceV2Reader(p); }),
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); }),
        fixture::thrown_by([&] { return trace::trace_health(p); })}) {
    EXPECT_EQ(e.type, "TraceFormatError");
    EXPECT_EQ(e.what, expected);
  }
}

TEST_F(TraceIoTest, RejectsTruncatedFile) {
  const trace::Trace t = small_trace(100);
  trace::write_samt_v2(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes.resize(bytes.size() - 13);
  const std::string p = write_bytes("trunc.samt", bytes);
  // The header is intact; the footer is not.
  EXPECT_NO_THROW((void)trace::read_samt_header(p));
  const fixture::Thrown e =
      fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
  EXPECT_EQ(e.type, "TraceCorruptError");
  EXPECT_EQ(e.damage, trace::TraceDamage::kTornTail);
  EXPECT_NE(e.what.find("torn tail"), std::string::npos) << e.what;
}

TEST_F(TraceIoTest, RejectsHeaderOnlyStub) {
  std::ofstream(path("stub.samt"), std::ios::binary).write("SAMT", 4);
  EXPECT_THROW((void)trace::read_samt_header(path("stub.samt")),
               trace::TraceFormatError);
  EXPECT_THROW((void)trace::TraceSource::open_samt(path("stub.samt")),
               trace::TraceFormatError);
}

TEST_F(TraceIoTest, RejectsChecksumMismatch) {
  const trace::Trace t = small_trace(100);
  trace::write_samt_v2(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  // Flip a bit in the first record's payload (after the header and the
  // 32-byte block header).
  bytes[sizeof(trace::SamtHeader) + sizeof(trace::SamtBlockHeader) + 5] ^=
      0x40;
  const std::string p = write_bytes("flip.samt", bytes);
  // The header itself is fine...
  EXPECT_NO_THROW((void)trace::read_samt_header(p));
  // ...but decoding the block checks its guard.
  const fixture::Thrown e =
      fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
  EXPECT_EQ(e.type, "TraceCorruptError");
  EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_NE(e.what.find("guard mismatch"), std::string::npos) << e.what;
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW((void)trace::read_samt_header(path("absent.samt")),
               trace::TraceFormatError);
  EXPECT_THROW((void)trace::TraceSource::open_samt(path("absent.samt")),
               trace::TraceFormatError);
}

// -------------------------------------------------- bit-identical replay --

TEST_F(TraceIoTest, ReplayIsBitIdenticalForEveryLsqKind) {
  trace::WorkloadGenerator gen(trace::spec2000_profile("ammp"), 42);
  const trace::Trace t = gen.generate(30000);
  trace::write_samt_v2(path("ammp.samt"), t, "ammp", 42);

  const trace::Trace copied = trace::TraceV2Reader(path("ammp.samt")).read_all();

  for (const auto lsq : {sim::LsqChoice::kConventional, sim::LsqChoice::kArb,
                         sim::LsqChoice::kSamie}) {
    SCOPED_TRACE(sim::lsq_choice_name(lsq));
    sim::SimConfig cfg = sim::paper_config(lsq);
    cfg.instructions = t.size();
    const sim::SimResult in_memory = sim::run_simulation(cfg, t);
    const sim::SimResult via_reader = sim::run_simulation(cfg, copied);
    expect_results_identical(in_memory, via_reader);
    // And through the cfg.trace_path front door.
    sim::SimConfig replay_cfg = cfg;
    replay_cfg.trace_path = path("ammp.samt");
    expect_results_identical(in_memory, sim::run_trace_file(replay_cfg));
  }
}

TEST_F(TraceIoTest, RunJobsSharesOneSourceAcrossLsqSweep) {
  trace::WorkloadGenerator gen(trace::spec2000_profile("swim"), 9);
  const trace::Trace t = gen.generate(20000);
  trace::write_samt_v2(path("swim.samt"), t, "swim", 9);

  std::vector<sim::Job> jobs;
  for (const auto lsq : {sim::LsqChoice::kConventional, sim::LsqChoice::kArb,
                         sim::LsqChoice::kSamie}) {
    sim::Job job;
    job.program = "swim";
    job.config = sim::paper_config(lsq);
    job.config.instructions = t.size();
    job.config.trace_path = path("swim.samt");
    job.tag = sim::lsq_choice_name(lsq);
    jobs.push_back(job);
  }
  const auto results = sim::run_jobs(jobs, 3);
  ASSERT_EQ(results.size(), 3U);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sim::SimConfig cfg = jobs[i].config;
    cfg.trace_path.clear();
    expect_results_identical(sim::run_simulation(cfg, t), results[i].result);
  }
}

TEST_F(TraceIoTest, RunJobsSurfacesWorkerErrors) {
  sim::Job job;
  job.program = "nope";
  job.config = sim::paper_config(sim::LsqChoice::kSamie);
  job.config.trace_path = path("does_not_exist.samt");
  EXPECT_THROW((void)sim::run_jobs({job}, 2), trace::TraceFormatError);
}

// ------------------------------------------------------------ TraceSource --

TEST_F(TraceIoTest, TraceSourceProvenance) {
  const trace::TraceSource generated = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), 7, 1000);
  EXPECT_EQ(generated.name(), "gcc");
  EXPECT_EQ(generated.seed(), 7U);
  EXPECT_EQ(generated.size(), 1000U);

  trace::write_samt_v2(path("g.samt"), generated.view(), generated.name(),
                       generated.seed());
  const trace::TraceSource opened = trace::TraceSource::open_samt(path("g.samt"));
  EXPECT_EQ(opened.name(), "gcc");
  EXPECT_EQ(opened.seed(), 7U);
  expect_ops_equal(generated.view(), opened.view());
  // Both hold the trace as the file's blocks: the bytes between its
  // header and its index.
  const std::vector<char> file = slurp(path("g.samt"));
  const std::span<const unsigned char> blocks = generated.blocks();
  ASSERT_GT(file.size(), sizeof(trace::SamtHeader) + blocks.size());
  EXPECT_EQ(std::memcmp(file.data() + sizeof(trace::SamtHeader),
                        blocks.data(), blocks.size()),
            0);
  ASSERT_EQ(opened.blocks().size(), blocks.size());
  EXPECT_EQ(std::memcmp(opened.blocks().data(), blocks.data(), blocks.size()),
            0);
}

TEST_F(TraceIoTest, GeneratedSourceIsByteIdenticalToGenerator) {
  // TracePins pins WorkloadGenerator::generate. TraceSource::generate
  // writes into pages of its own through generate_into, and must produce
  // the very same bytes for every program at more than one seed.
  static_assert(std::has_unique_object_representations_v<trace::MicroOp>);
  constexpr std::uint64_t kRecords = 20'000;
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    for (const std::string& name : trace::spec2000_names()) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      const trace::WorkloadProfile profile = trace::spec2000_profile(name);
      const trace::Trace ref =
          trace::WorkloadGenerator(profile, seed).generate(kRecords);
      const trace::TraceSource src =
          trace::TraceSource::generate(profile, seed, kRecords);
      EXPECT_EQ(src.name(), name);
      EXPECT_EQ(src.seed(), seed);
      ASSERT_EQ(src.size(), ref.size());
      EXPECT_EQ(std::memcmp(src.view().data(), ref.ops.data(),
                            kRecords * sizeof(trace::MicroOp)),
                0);
    }
  }
  EXPECT_EQ(trace::TraceSource::generate(trace::spec2000_profile("gcc"), 7, 0)
                .size(),
            0U);
  // A length no address space holds fails before anything is mapped,
  // as WorkloadGenerator::generate's reserve does.
  EXPECT_THROW((void)trace::TraceSource::generate(
                   trace::spec2000_profile("gcc"), 7, ~std::uint64_t{0}),
               std::length_error);
}

// ------------------------------------------------------------ text import --

TEST_F(TraceIoTest, ImportTextBuildsValidTrace) {
  const std::string text =
      "# a small kernel\n"
      "int_alu\n"
      "store 0x1000 8        # plain store\n"
      "load 0x1000 8 1       # depends on the store's address producer\n"
      "int_alu 0 0           # no deps\n"
      "fp_mul 2              # depends on the load\n"
      "branch 1              # taken, synthesized backward target\n"
      "load 0x2000 4\n"
      "nop\n";
  const trace::Trace t =
      trace::import_text_trace_from_string(text, "inline.txt");
  ASSERT_EQ(t.size(), 8U);
  EXPECT_EQ(t[0].op, trace::OpClass::kIntAlu);
  EXPECT_EQ(t[1].op, trace::OpClass::kStore);
  EXPECT_EQ(t[1].addr, 0x1000U);
  EXPECT_EQ(t[1].mem_size, 8U);
  EXPECT_EQ(t[2].op, trace::OpClass::kLoad);
  // The load must observe the store's oracle value.
  EXPECT_EQ(t[2].value, t[1].value);
  // `1` back from the load is the store, which has no dst: dep dropped.
  EXPECT_EQ(t[2].src1, kNoReg);
  EXPECT_EQ(t[4].op, trace::OpClass::kFpMul);
  // `2` back from fp_mul is the load: real register dependency.
  EXPECT_EQ(t[4].src1, t[2].dst);
  EXPECT_TRUE(is_fp_reg(t[4].dst));
  EXPECT_EQ(t[5].op, trace::OpClass::kBranch);
  EXPECT_TRUE(t[5].taken);
  EXPECT_LT(t[5].addr, t[5].pc);
  // Untouched memory loads as zero.
  EXPECT_EQ(t[6].value, 0U);
  // PCs are sequential.
  EXPECT_EQ(t[7].pc, t[0].pc + 7 * 4);
}

TEST_F(TraceIoTest, ImportedTraceRunsCleanly) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "store 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%x", 0x4000 + (i % 16) * 8);
      return std::string(buf);
    }() + " 8\n";
    text += "load 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%x", 0x4000 + (i % 16) * 8);
      return std::string(buf);
    }() + " 8\n";
    text += "int_alu 1\n";
    text += "branch 1\n";
  }
  const trace::Trace t = trace::import_text_trace_from_string(text, "gen.txt");
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = t.size();
  const sim::SimResult r = sim::run_simulation(cfg, t);
  EXPECT_EQ(r.core.committed, t.size());
  // The oracle values synthesized by the importer must hold up under the
  // core's load-value checking: any mismatch is an importer bug.
  EXPECT_EQ(r.core.value_mismatches, 0U);
}

TEST_F(TraceIoTest, ImportRejectsMalformedLines) {
  const auto expect_bad = [](const std::string& text, const char* needle) {
    try {
      (void)trace::import_text_trace_from_string(text, "bad.txt");
      FAIL() << "expected TraceFormatError for: " << text;
    } catch (const trace::TraceFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_bad("frobnicate 0x10 4\n", "unknown op class");
  expect_bad("load\n", "expected an address");
  expect_bad("load 0x1000\n", "expected an access size");
  expect_bad("load 0x1000 16\n", "must be 4 or 8");
  expect_bad("load 0x1001 8\n", "aligned");
  expect_bad("load 0x1000 8 1 2 3\n", "trailing");
  expect_bad("branch 7\n", "0 or 1");
  expect_bad("store 0x10zz 8\n", "expected an address");
}

TEST_F(TraceIoTest, ImportFileEndToEnd) {
  {
    std::ofstream out(path("k.txt"));
    out << "store 0x800 8\nload 0x800 8\nint_alu 1\n";
  }
  const trace::Trace t = trace::import_text_trace(path("k.txt"));
  EXPECT_EQ(t.name, "k");
  EXPECT_EQ(t.size(), 3U);
  EXPECT_EQ(t[1].value, t[0].value);
}

// ------------------------------------------- hotpath JSON section bound --

TEST(HotpathJson, KeySearchIsBoundedToItsSection) {
  const std::string json =
      "{\n"
      "  \"lsqs\": {\n"
      "    \"conventional\": {\n"
      "      \"total_sim_cycles\": 5,\n"
      "      \"programs\": [{\"program\": \"gcc\"}]\n"
      "    },\n"
      "    \"samie\": {\n"
      "      \"sim_cycles_per_second\": 123.5,\n"
      "      \"programs\": []\n"
      "    }\n"
      "  }\n"
      "}\n";
  // "conventional" lacks the key: must yield 0, not samie's 123.5.
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "conventional"), 0.0);
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "samie"), 123.5);
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "arb"), 0.0);
}

}  // namespace
}  // namespace samie

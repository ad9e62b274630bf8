// Corrupt-trace fuzz: randomized bit flips and truncations of a valid
// SAMT file must surface as trace::TraceFormatError — never a crash, a
// hang, or a silently-wrong replay. The RNG is seeded deterministically
// (Xoshiro256), so every failure reproduces.
//
// The header layout (src/trace/trace_io.h, 64 bytes) splits into two
// regions with different guarantees:
//   [0,24)  magic/version/record_bytes/count — any flip MUST throw
//           (magic mismatch, bad version/record size, or a count that
//           contradicts the exact-file-size check)
//   [32,40) checksum — any flip MUST throw (FNV mismatch)
//   [24,32) seed and [40,64) name — provenance only; a flip may load
//           fine, but must never crash
// Record bytes [64,end) are covered by the FNV-1a checksum, whose
// byte-step (h ^ b) * prime is bijective in h, so any single-byte change
// always changes the final hash: a flip anywhere in the records MUST
// throw. Truncating or extending the file contradicts the exact-size
// check and MUST throw.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"
#include "tests/samt_v1_fixture.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

class TraceFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_fuzz_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    // One small valid trace, reused (in memory) by every mutation.
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
    trace::Trace t = gen.generate(1500);
    t.name = "gcc";
    t.seed = 11;
    const std::string p = path("seedfile.samt");
    fixture::write_samt_v1(p, t, t.name, t.seed);
    std::ifstream in(p, std::ios::binary);
    valid_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(valid_.size(), 64u);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  [[nodiscard]] std::string write_mutant(const std::vector<char>& bytes) const {
    const std::string p = path("mutant.samt");
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  /// Opens via both ingestion paths. Returns true when both succeeded;
  /// throws whatever they throw. Successful opens are walked end to end
  /// so a lying header would fault here, under the test harness.
  static bool open_both(const std::string& p) {
    std::uint64_t sink = 0;
    {
      const trace::TraceSource mapped = trace::TraceSource::open_samt(p);
      for (std::size_t i = 0; i < mapped.size(); ++i) {
        sink += mapped.view()[i].pc;
      }
    }
    const trace::Trace copied = trace::TraceReader(p).read_all();
    for (const auto& op : copied.ops) sink += op.value;
    return sink != 0xdeadULL;  // defeat optimizing the walks away
  }

  fs::path dir_;
  std::vector<char> valid_;
};

TEST_F(TraceFuzzTest, ValidBaselineOpensCleanly) {
  EXPECT_NO_THROW((void)open_both(write_mutant(valid_)));
}

TEST_F(TraceFuzzTest, BitFlipsInGuardedRegionsAlwaysThrow) {
  Xoshiro256 rng(0x5eedULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes = valid_;
    // Guarded offsets: header [0,24) u [32,40), or any record byte.
    std::size_t off;
    switch (rng.below(3)) {
      case 0: off = rng.below(24); break;
      case 1: off = 32 + rng.below(8); break;
      default: off = 64 + rng.below(bytes.size() - 64); break;
    }
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_both(p), trace::TraceFormatError)
        << "trial " << trial << ": flip at offset " << off
        << " was accepted";
  }
}

TEST_F(TraceFuzzTest, TruncationsAndExtensionsAlwaysThrow) {
  Xoshiro256 rng(0xacce55ULL);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_;
    if (rng.below(2) == 0) {
      bytes.resize(rng.below(bytes.size()));  // truncate (possibly to 0)
    } else {
      const std::size_t extra = 1 + rng.below(80);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng()));
      }
    }
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_both(p), trace::TraceFormatError)
        << "trial " << trial << ": size " << bytes.size() << " vs valid "
        << valid_.size();
  }
}

TEST_F(TraceFuzzTest, ProvenanceFlipsNeverCrash) {
  // seed [24,32) and name [40,64) are provenance, not integrity: a flip
  // may load fine (different seed/name) — it must never crash or hang.
  Xoshiro256 rng(0xbadc0deULL);
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_;
    const std::size_t off =
        rng.below(2) == 0 ? 24 + rng.below(8) : 40 + rng.below(24);
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    try {
      (void)open_both(p);
      ++accepted;
    } catch (const trace::TraceFormatError&) {
      // Also acceptable — just never a crash.
    }
  }
  // Sanity: these flips are outside every integrity check, so at least
  // some mutants must have loaded (all-throw would mean the regions
  // above are mislabeled and the MUST-throw tests are vacuous).
  EXPECT_GT(accepted, 0);
}

TEST_F(TraceFuzzTest, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(0x9a5b7eULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng.below(4096);
    std::vector<char> bytes(n);
    for (auto& b : bytes) b = static_cast<char>(rng());
    const std::string p = write_mutant(bytes);
    try {
      (void)open_both(p);
    } catch (const trace::TraceFormatError&) {
    }
  }
}

// -------------------------------------------------------------- SAMT v2 --
//
// v2 integrity coverage differs from v1's: everything after the 64-byte
// header — block headers, block payloads, index region, footer — carries
// its own FNV-1a guard, so a flip at ANY offset >= 64 must surface as a
// typed error from a full read. In the header, [0,24) and the index-
// binding checksum [32,40) are guarded; seed [24,32) and name [40,64)
// stay provenance-only, exactly as in v1.

class TraceV2FuzzTest : public TraceFuzzTest {
 protected:
  void SetUp() override {
    TraceFuzzTest::SetUp();
    // Small blocks so the mutation space covers many block boundaries,
    // interior blocks, and a multi-entry index.
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
    ops_ = gen.generate(1500).ops;
    const std::string p = path("seedfile_v2.samt");
    trace::write_samt_v2(p, trace::TraceView(ops_.data(), ops_.size()), "gcc",
                         11, /*block_records=*/256);
    std::ifstream in(p, std::ios::binary);
    valid_v2_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(valid_v2_.size(), 96u);
  }

  /// Full verifying read: eager footer/index validation at construction,
  /// then a whole-file block walk.
  static bool open_v2(const std::string& p) {
    const trace::TraceV2Reader r(p);
    std::uint64_t sink = 0;
    for (const auto& op : r.read_all().ops) sink += op.pc;
    return sink != 0xdeadULL;
  }

  std::vector<trace::MicroOp> ops_;
  std::vector<char> valid_v2_;
};

TEST_F(TraceV2FuzzTest, IntactFileDecodesBitIdentically) {
  const std::string p = write_mutant(valid_v2_);
  const trace::Trace t = trace::TraceV2Reader(p).read_all();
  ASSERT_EQ(t.ops.size(), ops_.size());
  static_assert(std::has_unique_object_representations_v<trace::MicroOp>);
  EXPECT_EQ(std::memcmp(t.ops.data(), ops_.data(),
                        ops_.size() * sizeof(trace::MicroOp)),
            0);
  // Re-encoding the decoded records reproduces the file byte for byte:
  // the v2 encoding is canonical, so "decode + re-encode" is the
  // identity on intact files.
  const std::string p2 = path("rewritten.samt");
  trace::write_samt_v2(p2, trace::TraceView(t.ops.data(), t.ops.size()), "gcc",
                       11, /*block_records=*/256);
  std::ifstream in(p2, std::ios::binary);
  const std::vector<char> rewritten((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
  EXPECT_EQ(rewritten, valid_v2_);
}

TEST_F(TraceV2FuzzTest, BitFlipsInGuardedRegionsAlwaysThrow) {
  Xoshiro256 rng(0x2f1a9bULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes = valid_v2_;
    // Guarded: header [0,24) u [32,40), or anything after the header
    // (blocks, index, footer — every byte is under some FNV guard).
    std::size_t off;
    switch (rng.below(4)) {
      case 0: off = rng.below(24); break;
      case 1: off = 32 + rng.below(8); break;
      default: off = 64 + rng.below(bytes.size() - 64); break;
    }
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_v2(p), trace::TraceFormatError)
        << "trial " << trial << ": flip at offset " << off << " was accepted";
    // The damage walk must also notice: it either reports damage, or —
    // for flips that destroy the magic/version/record-size — throws the
    // same typed not-a-SAMT-file error. Never a clean verdict.
    try {
      const trace::TraceHealth h = trace::trace_health(p);
      EXPECT_NE(h.damage, trace::TraceDamage::kNone)
          << "trial " << trial << ": health missed flip at offset " << off;
    } catch (const trace::TraceFormatError&) {
    }
  }
}

TEST_F(TraceV2FuzzTest, TruncationsAndExtensionsAlwaysThrow) {
  Xoshiro256 rng(0x7e4c2dULL);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_v2_;
    if (rng.below(2) == 0) {
      bytes.resize(rng.below(bytes.size()));  // truncate (possibly to 0)
    } else {
      const std::size_t extra = 1 + rng.below(80);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng()));
      }
    }
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_v2(p), trace::TraceFormatError)
        << "trial " << trial << ": size " << bytes.size() << " vs valid "
        << valid_v2_.size();
  }
}

TEST_F(TraceV2FuzzTest, DamageIsClassifiedByRegion) {
  // Torn tail: cut the file mid-blocks (the footer and index are gone).
  {
    std::vector<char> bytes = valid_v2_;
    bytes.resize(bytes.size() / 2);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kTornTail);
  }
  // Interior corruption: flip a payload byte of the second block; the
  // index and footer stay intact, so only that block reads bad.
  {
    const trace::TraceV2Reader r(write_mutant(valid_v2_));
    ASSERT_GE(r.index().size(), 3u);
    const std::size_t off =
        static_cast<std::size_t>(r.index()[1].file_offset) +
        sizeof(trace::SamtBlockHeader) + 3;
    std::vector<char> bytes = valid_v2_;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(h.bad_blocks, 1u);
    EXPECT_EQ(h.first_bad_offset, r.index()[1].file_offset);
  }
  // Bad index: flip a byte inside the index region (located via the
  // footer at the end of the intact file).
  {
    trace::SamtFooter footer{};
    std::memcpy(&footer, valid_v2_.data() + valid_v2_.size() - sizeof footer,
                sizeof footer);
    std::vector<char> bytes = valid_v2_;
    const std::size_t off = static_cast<std::size_t>(footer.index_offset) + 9;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kBadIndex);
  }
}

TEST_F(TraceV2FuzzTest, RandomGarbageNeverCrashesV2Reader) {
  Xoshiro256 rng(0x33cc77ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng.below(4096);
    std::vector<char> bytes(n);
    for (auto& b : bytes) b = static_cast<char>(rng());
    const std::string p = write_mutant(bytes);
    try {
      (void)open_v2(p);
    } catch (const trace::TraceFormatError&) {
    }
    try {
      (void)trace::trace_health(p);
    } catch (const trace::TraceFormatError&) {
    }
  }
}

// ---------------------------------------------------------- record domain --
//
// Guards prove the bytes are the ones written, not that the model can
// simulate them: a guard-intact file can still carry a record that would
// corrupt the heap (an 8-byte store straddling a page edge, a register
// past the 64-entry rename table, an access size that overflows a
// shift). open_samt and read_samt reject every record outside the record
// domain (trace::record_domain_violation) as interior corruption, in
// every build and with or without v1's checksum pass, while the codecs
// stay format-level and round-trip such records.

/// A record the model cannot simulate, planted at kBadRecord.
struct BadRecord {
  const char* what;
  void (*plant)(trace::MicroOp&);
};

constexpr std::size_t kBadRecord = 700;  // block 2 at 256 records a block

const BadRecord kBadRecords[] = {
    {"8-byte store across a page edge",
     [](trace::MicroOp& op) {
       op.op = trace::OpClass::kStore;
       op.mem_addr = 0x10000FFC;
       op.mem_size = 8;
       op.dst = kNoReg;
     }},
    {"destination register 200", [](trace::MicroOp& op) { op.dst = 200; }},
    {"access size 255",
     [](trace::MicroOp& op) {
       op.op = trace::OpClass::kStore;
       op.mem_addr = 0x10000000;
       op.mem_size = 255;
       op.dst = kNoReg;
     }},
};

[[nodiscard]] std::vector<trace::MicroOp> generated_ops() {
  trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
  return gen.generate(1500).ops;
}

/// Asserts that both TraceSource entry points reject `p` as interior
/// corruption at (block, offset), naming the bad record.
void expect_domain_rejected(const std::string& p, std::uint64_t block,
                            std::uint64_t offset, bool verify_checksum) {
  const auto check = [&](const auto& open) {
    try {
      (void)open();
      ADD_FAILURE() << p << " opened despite an out-of-domain record";
    } catch (const trace::TraceCorruptError& e) {
      EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
      EXPECT_EQ(e.block, block);
      EXPECT_EQ(e.offset, offset);
      EXPECT_NE(std::string(e.what()).find("record " +
                                           std::to_string(kBadRecord)),
                std::string::npos)
          << e.what();
    }
  };
  check([&] { return trace::TraceSource::open_samt(p, verify_checksum); });
  check([&] { return trace::TraceSource::read_samt(p); });
}

TEST_F(TraceV2FuzzTest, OpenRejectsRecordsOutsideTheDomain) {
  for (const BadRecord& bad : kBadRecords) {
    SCOPED_TRACE(bad.what);
    std::vector<trace::MicroOp> ops = generated_ops();
    bad.plant(ops[kBadRecord]);
    const std::string p = path("bad.samt");
    trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                         11, /*block_records=*/256);
    // The codec is format-level: the guards hold and the record decodes.
    const trace::TraceV2Reader r(p);
    const trace::Trace decoded = r.read_all();
    ASSERT_EQ(decoded.ops.size(), ops.size());
    EXPECT_EQ(std::memcmp(&decoded.ops[kBadRecord], &ops[kBadRecord],
                          sizeof(trace::MicroOp)),
              0);
    const std::uint64_t block = kBadRecord / 256;
    expect_domain_rejected(p, block, r.index()[block].file_offset, true);
    expect_domain_rejected(p, block, r.index()[block].file_offset, false);
  }
}

TEST_F(TraceFuzzTest, OpenRejectsV1RecordsOutsideTheDomain) {
  std::vector<BadRecord> cases(std::begin(kBadRecords), std::end(kBadRecords));
  // v1 records are the file's bytes, so a bool can hold anything.
  cases.push_back({"taken byte 2", [](trace::MicroOp& op) {
                     reinterpret_cast<unsigned char*>(&op)[offsetof(
                         trace::MicroOp, taken)] = 2;
                   }});
  for (const BadRecord& bad : cases) {
    SCOPED_TRACE(bad.what);
    std::vector<trace::MicroOp> ops = generated_ops();
    bad.plant(ops[kBadRecord]);
    const std::string p = path("bad_v1.samt");
    fixture::write_samt_v1(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                           11);
    const std::uint64_t offset =
        sizeof(trace::SamtHeader) + kBadRecord * sizeof(trace::MicroOp);
    // --no-verify-checksum skips only the checksum pass, never this check.
    for (const bool verify : {true, false}) {
      expect_domain_rejected(p, trace::TraceCorruptError::kNoBlock, offset,
                             verify);
    }
  }
}

TEST_F(TraceV2FuzzTest, SweepOverAnOutOfDomainTraceSealsTraceDamaged) {
  for (const BadRecord& bad : kBadRecords) {
    SCOPED_TRACE(bad.what);
    std::vector<trace::MicroOp> ops = generated_ops();
    bad.plant(ops[kBadRecord]);
    const std::string p = path("bad.samt");
    trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                         11, /*block_records=*/256);
    sim::Job job{"gcc", sim::paper_config(sim::LsqChoice::kSamie), "samie"};
    job.config.instructions = ops.size();
    job.config.trace_path = p;
    for (const unsigned procs : {0U, 1U}) {
      SCOPED_TRACE(procs != 0 ? "isolate_procs=1" : "threads=1");
      const std::string ckpt = path("sweep" + std::to_string(procs) + ".ckpt");
      std::filesystem::remove(ckpt);
      sim::SweepOptions opt;
      opt.threads = 1;
      opt.isolate_procs = procs;
      opt.checkpoint_path = ckpt;
      const sim::SweepReport rep = sim::run_sweep({job}, opt);
      const sim::JobOutcome& oc = rep.jobs[0].outcome;
      EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged) << oc.what;
      EXPECT_EQ(oc.damage, trace::TraceDamage::kInteriorCorrupt);
      EXPECT_EQ(oc.damage_block, kBadRecord / 256);
      EXPECT_EQ(oc.attempts, 1U);
      EXPECT_EQ(sim::load_checkpoint(ckpt).damaged.size(), 1U)
          << "the damaged job must leave a 'D' line";
    }
  }
}

}  // namespace
}  // namespace samie

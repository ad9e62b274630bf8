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
#include <utility>
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
#include "tests/trace_thrown.h"

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
// shift). open_samt rejects every record outside the record domain
// (trace::record_domain_violation, and for v1 the records no MicroOp can
// hold) as interior corruption, in every build and with or without v1's
// checksum pass, while the v2 codec stays format-level and round-trips
// such records.

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
       op.addr = 0x10000FFC;
       op.mem_size = 8;
       op.dst = kNoReg;
     }},
    {"destination register 200", [](trace::MicroOp& op) { op.dst = 200; }},
    {"access size 255",
     [](trace::MicroOp& op) {
       op.op = trace::OpClass::kStore;
       op.addr = 0x10000000;
       op.mem_size = 255;
       op.dst = kNoReg;
     }},
};

[[nodiscard]] std::vector<trace::MicroOp> generated_ops() {
  trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
  return gen.generate(1500).ops;
}

/// Asserts that TraceSource::open_samt rejects `p` as interior
/// corruption at (block, offset), naming the bad record and `rule`.
void expect_domain_rejected(const std::string& p, std::uint64_t block,
                            std::uint64_t offset, bool verify_checksum,
                            const std::string& rule = "") {
  try {
    (void)trace::TraceSource::open_samt(p, verify_checksum);
    ADD_FAILURE() << p << " opened despite an out-of-domain record";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(e.block, block);
    EXPECT_EQ(e.offset, offset);
    const std::string what = e.what();
    EXPECT_NE(what.find("record " + std::to_string(kBadRecord)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(rule), std::string::npos) << what;
  }
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

TEST_F(TraceV2FuzzTest, ErrorPrecedenceIsLowestBlockThenRecordDomain) {
  // An open throws for the lowest-index damaged block, and block damage
  // anywhere wins over a record outside the domain (which is checked
  // while its block decodes, before later blocks are verified).
  const trace::TraceV2Reader pristine(write_mutant(valid_v2_));
  ASSERT_GE(pristine.block_count(), 5u);
  const auto flip_payload = [&](std::vector<char>& bytes, std::size_t block) {
    const std::size_t off =
        static_cast<std::size_t>(pristine.index()[block].file_offset) +
        sizeof(trace::SamtBlockHeader) + 2;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x08);
  };
  const auto expect_error = [&](const std::string& p, std::uint64_t block) {
    const fixture::Thrown opened =
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
    EXPECT_EQ(opened.type, "TraceCorruptError");
    EXPECT_EQ(opened.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(opened.block, block);
    EXPECT_EQ(opened.offset, pristine.index()[block].file_offset);
  };
  {
    SCOPED_TRACE("two interior-corrupt blocks: the lower one is reported");
    std::vector<char> bytes = valid_v2_;
    flip_payload(bytes, 4);
    flip_payload(bytes, 1);
    expect_error(write_mutant(bytes), 1);
  }
  {
    SCOPED_TRACE("out-of-domain record in block 0, corrupt block 3");
    std::vector<trace::MicroOp> ops = ops_;
    ops[10].dst = 200;
    const std::string p = path("domain_and_damage.samt");
    trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                         11, /*block_records=*/256);
    std::ifstream in(p, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    flip_payload(bytes, 3);
    expect_error(write_mutant(bytes), 3);
  }
  {
    SCOPED_TRACE("a corrupt payload that no longer decodes fails its guard");
    std::vector<char> bytes = valid_v2_;
    const std::size_t presence =
        static_cast<std::size_t>(pristine.index()[2].file_offset) +
        sizeof(trace::SamtBlockHeader);
    bytes[presence] = static_cast<char>(bytes[presence] | 0x0F);  // op 15
    const std::string p = write_mutant(bytes);
    expect_error(p, 2);
    const fixture::Thrown e =
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
    EXPECT_NE(e.what.find("guard mismatch"), std::string::npos) << e.what;
  }
}

/// Re-seals a one-block v2 file after its payload was edited: the block
/// guard, its index copy, the index guard and the header checksum.
void reseal_one_block(std::vector<char>& bytes) {
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    return v;
  };
  auto put_u64 = [&](std::size_t off, std::uint64_t v) {
    std::memcpy(bytes.data() + off, &v, sizeof v);
  };
  constexpr std::size_t kBlock = sizeof(trace::SamtHeader);
  trace::SamtBlockHeader h{};
  std::memcpy(&h, bytes.data() + kBlock, sizeof h);
  const std::uint64_t guard = trace::fnv1a_64(
      bytes.data() + kBlock + sizeof h, h.payload_bytes,
      trace::fnv1a_64(&h, sizeof h - sizeof h.guard));
  put_u64(kBlock + offsetof(trace::SamtBlockHeader, guard), guard);
  const std::size_t footer = bytes.size() - sizeof(trace::SamtFooter);
  const auto region =
      static_cast<std::size_t>(u64_at(footer + offsetof(trace::SamtFooter,
                                                        index_offset)));
  const auto region_bytes = static_cast<std::size_t>(
      u64_at(footer + offsetof(trace::SamtFooter, index_bytes)));
  put_u64(region + 8 + offsetof(trace::SamtIndexEntry, guard), guard);
  put_u64(region + region_bytes - 8,
          trace::fnv1a_64(bytes.data() + region, region_bytes - 8));
  put_u64(offsetof(trace::SamtHeader, checksum),
          trace::fnv1a_64(bytes.data() + region, region_bytes));
}

TEST_F(TraceV2FuzzTest, VarintTenthByteIsJudgedAlikeOnBothDecodePaths) {
  // A value of 2^64 - 1 encodes as nine 0xFF bytes and a 10th byte 0x01,
  // which may only carry the value's top bit. With that byte rewritten
  // and every guard re-sealed, the record must decode or fail the same
  // way as the first record of a block (decoded while a whole record's
  // bytes remain) and as the last (the bounds-checked tail).
  trace::MicroOp big;
  big.op = trace::OpClass::kLoad;
  big.mem_size = 8;
  big.addr = 8;
  big.value = ~std::uint64_t{0};
  std::vector<trace::MicroOp> ops(8);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].pc = 4 * i;
  ops.front() = big;
  ops.back() = big;
  const std::string p = path("tenth.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 11,
                       /*block_records=*/8);
  std::vector<char> pristine;
  {
    std::ifstream in(p, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  trace::SamtBlockHeader h{};
  std::memcpy(&h, pristine.data() + sizeof(trace::SamtHeader), sizeof h);
  ASSERT_EQ(h.record_count, 8u);
  const std::size_t payload = sizeof(trace::SamtHeader) + sizeof h;
  // Record 0: five raw bytes, one-byte pc and mem deltas, then the value;
  // record 7 ends the payload with its value.
  const std::size_t first_tenth = payload + 5 + 1 + 1 + 9;
  const std::size_t last_tenth = payload + h.payload_bytes - 1;
  ASSERT_EQ(static_cast<unsigned char>(pristine[first_tenth]), 0x01);
  ASSERT_EQ(static_cast<unsigned char>(pristine[last_tenth]), 0x01);
  for (const unsigned tenth : {0x00u, 0x01u, 0x02u, 0x7Fu, 0x80u, 0x81u}) {
    SCOPED_TRACE("10th byte " + std::to_string(tenth));
    for (const auto& [at, record] :
         {std::pair{first_tenth, 0u}, std::pair{last_tenth, 7u}}) {
      std::vector<char> bytes = pristine;
      bytes[at] = static_cast<char>(tenth);
      reseal_one_block(bytes);
      const std::string q = write_mutant(bytes);
      if (tenth <= 1) {
        const trace::Trace t = trace::TraceV2Reader(q).read_all();
        EXPECT_EQ(t.ops[record].value,
                  (std::uint64_t{tenth} << 63) | (~std::uint64_t{0} >> 1));
      } else {
        const fixture::Thrown e =
            fixture::thrown_by([&] { return trace::TraceV2Reader(q).read_all(); });
        EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
        EXPECT_NE(e.what.find("undecodable record " + std::to_string(record)),
                  std::string::npos)
            << e.what;
      }
    }
  }
}

TEST_F(TraceFuzzTest, OpenRejectsV1RecordsOutsideTheDomain) {
  struct V1BadRecord {
    const char* what;
    const char* rule;
    void (*plant_op)(trace::MicroOp&);
    void (*plant_record)(trace::SamtV1Record&);
  };
  std::vector<V1BadRecord> cases;
  for (const BadRecord& bad : kBadRecords) {
    cases.push_back({bad.what, "", bad.plant, nullptr});
  }
  // Two records a v1 file can hold and a MicroOp cannot.
  cases.push_back({"taken byte 2", "taken flag must be 0 or 1", nullptr,
                   [](trace::SamtV1Record& r) { r.taken = 2; }});
  cases.push_back({"memory address and branch target",
                   "memory address and branch target both set", nullptr,
                   [](trace::SamtV1Record& r) {
                     r.op = static_cast<std::uint8_t>(trace::OpClass::kLoad);
                     r.mem_size = 8;
                     r.mem_addr = 0x10000000;
                     r.br_target = 0x00400000;
                   }});
  for (const V1BadRecord& bad : cases) {
    SCOPED_TRACE(bad.what);
    std::vector<trace::MicroOp> ops = generated_ops();
    if (bad.plant_op != nullptr) bad.plant_op(ops[kBadRecord]);
    std::vector<trace::SamtV1Record> records = fixture::v1_records(
        trace::TraceView(ops.data(), ops.size()));
    if (bad.plant_record != nullptr) bad.plant_record(records[kBadRecord]);
    const std::string p = path("bad_v1.samt");
    fixture::write_samt_v1(p, records, "gcc", 11);
    const std::uint64_t offset =
        sizeof(trace::SamtHeader) + kBadRecord * trace::kSamtRecordBytes;
    // --no-verify-checksum skips only the checksum pass, never this check.
    for (const bool verify : {true, false}) {
      expect_domain_rejected(p, trace::TraceCorruptError::kNoBlock, offset,
                             verify, bad.rule);
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

TEST_F(TraceV2FuzzTest, BothAddressBitsAreAnUndecodableRecord) {
  // A MicroOp holds one address, so a presence byte with both has-mem and
  // has-br set names a record no reader can hold. A load with a value is
  // rewritten in place (has-value off, has-br on: its value's varint now
  // reads as a branch target) with every guard resealed, as the first
  // record of a block (decoded while a whole record's bytes remain) and
  // as the last (the bounds-checked tail). Either way open_samt throws
  // interior corruption, and a sweep job over the file seals
  // trace-damaged.
  trace::MicroOp load;
  load.op = trace::OpClass::kLoad;
  load.mem_size = 8;
  load.addr = 0x10000000;
  load.value = 77;
  load.dst = 3;
  std::vector<trace::MicroOp> ops(8);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].pc = 4 * i;
  ops.front() = load;
  ops.back() = load;
  const auto file_bytes = [&](std::size_t records) {
    const std::string p = path("both.samt");
    trace::write_samt_v2(p, trace::TraceView(ops.data(), records), "gcc", 11,
                         /*block_records=*/8);
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> pristine = file_bytes(ops.size());
  // Records encode one after another, so the last record starts where
  // a block of the first seven ends.
  trace::SamtBlockHeader first_seven{};
  std::memcpy(&first_seven, file_bytes(7).data() + sizeof(trace::SamtHeader),
              sizeof first_seven);
  const std::size_t payload =
      sizeof(trace::SamtHeader) + sizeof(trace::SamtBlockHeader);
  constexpr unsigned char kLoadMemValue = 0x06 | 0x20 | 0x80;
  constexpr unsigned char kLoadMemBr = 0x06 | 0x20 | 0x40;
  for (const auto& [at, record] :
       {std::pair{payload, 0u},
        std::pair{payload + first_seven.payload_bytes, 7u}}) {
    SCOPED_TRACE("record " + std::to_string(record));
    std::vector<char> bytes = pristine;
    ASSERT_EQ(static_cast<unsigned char>(bytes[at]), kLoadMemValue);
    bytes[at] = static_cast<char>(kLoadMemBr);
    reseal_one_block(bytes);
    const std::string q = write_mutant(bytes);
    const fixture::Thrown e =
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(q); });
    EXPECT_EQ(e.type, "TraceCorruptError");
    EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(e.block, 0u);
    EXPECT_EQ(e.offset, sizeof(trace::SamtHeader));
    EXPECT_NE(e.what.find("undecodable record " + std::to_string(record)),
              std::string::npos)
        << e.what;

    sim::Job job{"gcc", sim::paper_config(sim::LsqChoice::kSamie), "samie"};
    job.config.instructions = ops.size();
    job.config.trace_path = q;
    for (const unsigned procs : {0U, 1U}) {
      SCOPED_TRACE(procs != 0 ? "isolate_procs=1" : "threads=1");
      const std::string ckpt = path("both" + std::to_string(procs) + ".ckpt");
      std::filesystem::remove(ckpt);
      sim::SweepOptions opt;
      opt.threads = 1;
      opt.isolate_procs = procs;
      opt.checkpoint_path = ckpt;
      const sim::SweepReport rep = sim::run_sweep({job}, opt);
      const sim::JobOutcome& oc = rep.jobs[0].outcome;
      EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged) << oc.what;
      EXPECT_EQ(oc.damage, trace::TraceDamage::kInteriorCorrupt);
      EXPECT_EQ(oc.damage_block, 0u);
      EXPECT_EQ(sim::load_checkpoint(ckpt).damaged.size(), 1U);
    }
  }
}

TEST_F(TraceV2FuzzTest, FooterFieldFlipsReadAsTornTail) {
  // The footer guard covers the 24 footer bytes after the magic (index
  // offset, index size and the guard itself) and is checked before those
  // fields are used, so flipping any of them reads as a torn tail at the
  // footer's offset — through the reader and the damage walk alike.
  const std::size_t footer = valid_v2_.size() - sizeof(trace::SamtFooter);
  for (std::size_t at = footer + sizeof(trace::kFooterMagic);
       at < valid_v2_.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      SCOPED_TRACE("footer byte " + std::to_string(at - footer) + " ^ " +
                   std::to_string(mask));
      std::vector<char> bytes = valid_v2_;
      bytes[at] = static_cast<char>(bytes[at] ^ mask);
      const std::string p = write_mutant(bytes);
      const fixture::Thrown e =
          fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
      EXPECT_EQ(e.type, "TraceCorruptError");
      EXPECT_EQ(e.damage, trace::TraceDamage::kTornTail);
      EXPECT_EQ(e.offset, footer);
      EXPECT_NE(e.what.find("footer guard mismatch"), std::string::npos)
          << e.what;
      const trace::TraceHealth h = trace::trace_health(p);
      EXPECT_EQ(h.damage, trace::TraceDamage::kTornTail);
      EXPECT_EQ(h.first_bad_offset, footer);
    }
  }
}

}  // namespace
}  // namespace samie

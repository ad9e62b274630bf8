// Corrupt-trace fuzz: randomized bit flips and truncations of a valid
// SAMT v2 file must surface as trace::TraceFormatError — never a crash,
// a hang, or a silently-wrong replay. The RNG is seeded deterministically
// (Xoshiro256), so every failure reproduces.
//
// Everything after the 64-byte header (src/trace/trace_io.h) — block
// headers, block payloads, index region, footer — carries its own FNV-1a
// guard, so a flip at ANY offset >= 64 must surface as a typed error from
// a full read. In the header, magic/version/record_bytes/count [0,24)
// and the index-binding checksum [32,40) are guarded; seed [24,32) and
// name [40,64) are provenance only: a flip there may load fine, but must
// never crash.
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
#include "tests/trace_thrown.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

class TraceV2FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_fuzz_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    // One small valid trace, reused (in memory) by every mutation. Small
    // blocks so the mutation space covers many block boundaries,
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

  /// Full verifying read: eager footer/index validation at construction,
  /// then a whole-file block walk.
  static bool open_v2(const std::string& p) {
    const trace::TraceV2Reader r(p);
    std::uint64_t sink = 0;
    for (const auto& op : r.read_all().ops) sink += op.pc;
    return sink != 0xdeadULL;
  }

  fs::path dir_;
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
    // A source keeps the bytes its open verified and lanes decode them
    // unchecked, so the open itself must refuse every flip.
    EXPECT_THROW((void)trace::TraceSource::open_samt(p),
                 trace::TraceFormatError)
        << "trial " << trial << ": open kept a flip at offset " << off;
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
    EXPECT_THROW((void)trace::TraceSource::open_samt(p),
                 trace::TraceFormatError)
        << "trial " << trial << ": size " << bytes.size();
  }
}

TEST_F(TraceV2FuzzTest, ProvenanceFlipsNeverCrash) {
  // seed [24,32) and name [40,64) are provenance, not integrity: a flip
  // may load fine (different seed/name) — it must never crash or hang.
  Xoshiro256 rng(0xbadc0deULL);
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_v2_;
    const std::size_t off =
        rng.below(2) == 0 ? 24 + rng.below(8) : 40 + rng.below(24);
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    try {
      const trace::TraceSource src = trace::TraceSource::open_samt(p);
      ASSERT_EQ(src.size(), ops_.size());
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

void put_u64(std::vector<char>& bytes, std::size_t off, std::uint64_t v) {
  std::memcpy(bytes.data() + off, &v, sizeof v);
}

[[nodiscard]] trace::SamtFooter footer_of(const std::vector<char>& bytes) {
  trace::SamtFooter footer{};
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof footer,
              sizeof footer);
  return footer;
}

/// Re-seals the index region of a v2 file after it was edited: the
/// index guard and the header checksum that binds the region.
void reseal_index(std::vector<char>& bytes) {
  const trace::SamtFooter footer = footer_of(bytes);
  const auto region = static_cast<std::size_t>(footer.index_offset);
  const auto region_bytes = static_cast<std::size_t>(footer.index_bytes);
  put_u64(bytes, region + region_bytes - 8,
          trace::fnv1a_64(bytes.data() + region, region_bytes - 8));
  put_u64(bytes, offsetof(trace::SamtHeader, checksum),
          trace::fnv1a_64(bytes.data() + region, region_bytes));
}

TEST_F(TraceV2FuzzTest, DamageIsClassifiedByRegion) {
  const trace::SamtFooter footer = footer_of(valid_v2_);
  const auto index = static_cast<std::size_t>(footer.index_offset);
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
    std::vector<char> bytes = valid_v2_;
    const std::size_t off = index + 9;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kBadIndex);
  }

  // Each layout verdict, reached with the guards in front of it intact
  // or resealed, reads as the same damage, offset and note through the
  // reader and through the damage walk.
  const auto expect_verdict = [&](const std::vector<char>& bytes,
                                  trace::TraceDamage damage,
                                  std::uint64_t offset,
                                  const std::string& note) {
    SCOPED_TRACE(note);
    const std::string p = write_mutant(bytes);
    const fixture::Thrown e =
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
    EXPECT_EQ(e.type, "TraceCorruptError");
    EXPECT_EQ(e.damage, damage);
    EXPECT_EQ(e.block, trace::TraceCorruptError::kNoBlock);
    EXPECT_EQ(e.offset, offset);
    EXPECT_EQ(e.what, p + ": " + note);
    const trace::TraceHealth h = trace::trace_health(p);
    EXPECT_EQ(h.damage, damage);
    EXPECT_EQ(h.first_bad_offset, offset);
    EXPECT_EQ(h.note, note);
    EXPECT_TRUE(h.blocks.empty());
  };
  const std::size_t entries = index + 8;
  const std::size_t blocks =
      (footer.index_bytes - 16) / sizeof(trace::SamtIndexEntry);
  ASSERT_GE(blocks, 3u);
  // The header plus fewer bytes than the smallest index and a footer.
  for (const std::size_t tail : {0u, 1u, 47u}) {
    std::vector<char> bytes(valid_v2_.begin(),
                            valid_v2_.begin() + 64 + tail);
    expect_verdict(bytes, trace::TraceDamage::kTornTail, 64 + tail,
                   "file too short for an index and footer (torn tail)");
  }
  {
    std::vector<char> bytes = valid_v2_;
    trace::SamtFooter moved = footer;
    moved.index_offset += 8;
    moved.guard = trace::fnv1a_64(&moved, sizeof moved - sizeof moved.guard);
    std::memcpy(bytes.data() + bytes.size() - sizeof moved, &moved,
                sizeof moved);
    expect_verdict(bytes, trace::TraceDamage::kBadIndex, moved.index_offset,
                   "footer index bounds are inconsistent");
  }
  {
    std::vector<char> bytes = valid_v2_;
    bytes[index] = static_cast<char>(bytes[index] ^ 0x01);  // "SIDX" magic
    expect_verdict(bytes, trace::TraceDamage::kBadIndex, index,
                   "index header is inconsistent");
  }
  {
    std::vector<char> bytes = valid_v2_;
    const std::size_t at = entries + sizeof(trace::SamtIndexEntry) +
                           offsetof(trace::SamtIndexEntry, first_record);
    std::uint64_t first = 0;
    std::memcpy(&first, bytes.data() + at, sizeof first);
    put_u64(bytes, at, first + 1);
    reseal_index(bytes);
    expect_verdict(bytes, trace::TraceDamage::kBadIndex, index,
                   "index entry 1 is inconsistent");
  }
  {
    std::vector<char> bytes = valid_v2_;
    const std::size_t at = entries +
                           (blocks - 1) * sizeof(trace::SamtIndexEntry) +
                           offsetof(trace::SamtIndexEntry, record_count);
    std::uint32_t count = 0;
    std::memcpy(&count, bytes.data() + at, sizeof count);
    ++count;
    std::memcpy(bytes.data() + at, &count, sizeof count);
    reseal_index(bytes);
    expect_verdict(bytes, trace::TraceDamage::kBadIndex, index,
                   "index does not cover the file / header count");
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
      (void)trace::TraceSource::open_samt(p);
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
// (trace::record_domain_violation) as interior corruption, in every
// build, while the v2 codec stays format-level and round-trips such
// records.

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
                            std::uint64_t offset) {
  try {
    (void)trace::TraceSource::open_samt(p);
    ADD_FAILURE() << p << " opened despite an out-of-domain record";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(e.block, block);
    EXPECT_EQ(e.offset, offset);
    const std::string what = e.what();
    EXPECT_NE(what.find("record " + std::to_string(kBadRecord)),
              std::string::npos)
        << what;
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
    expect_domain_rejected(p, block, r.index()[block].file_offset);
  }
}

TEST_F(TraceV2FuzzTest, HealthJudgesTheRecordDomainAsOpenDoes) {
  // trace_inspector --verify must not call clean a file every replay
  // refuses: the damage walk checks each record against the domain as
  // the open does, marks the block holding it bad, and notes the verdict
  // the open throws.
  for (const BadRecord& bad : kBadRecords) {
    SCOPED_TRACE(bad.what);
    std::vector<trace::MicroOp> ops = generated_ops();
    bad.plant(ops[kBadRecord]);
    const std::string p = path("bad.samt");
    trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                         11, /*block_records=*/256);
    const fixture::Thrown opened =
        fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
    ASSERT_EQ(opened.type, "TraceCorruptError");
    const trace::TraceHealth h = trace::trace_health(p);
    EXPECT_EQ(h.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(h.first_bad_offset, opened.offset);
    EXPECT_EQ(p + ": " + h.note, opened.what);
    EXPECT_EQ(h.bad_blocks, 1U);
    ASSERT_EQ(h.blocks.size(), 6U);
    for (std::size_t b = 0; b < h.blocks.size(); ++b) {
      EXPECT_EQ(h.blocks[b].ok, b != kBadRecord / 256) << "block " << b;
    }
  }
  // Block damage wins over the domain, as in the open: a record outside
  // the domain in block 0 and a corrupt payload in block 3 are two bad
  // blocks, and the note is block 3's guard verdict.
  std::vector<trace::MicroOp> ops = ops_;
  ops[10].dst = 200;
  const std::string p = path("domain_and_damage.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 11,
                       /*block_records=*/256);
  const trace::TraceV2Reader pristine(p);
  std::ifstream in(p, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::size_t off =
      static_cast<std::size_t>(pristine.index()[3].file_offset) +
      sizeof(trace::SamtBlockHeader) + 2;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x08);
  const std::string q = write_mutant(bytes);
  const fixture::Thrown opened =
      fixture::thrown_by([&] { return trace::TraceSource::open_samt(q); });
  const trace::TraceHealth h = trace::trace_health(q);
  EXPECT_EQ(h.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(h.bad_blocks, 2U);
  EXPECT_FALSE(h.blocks[0].ok);
  EXPECT_FALSE(h.blocks[3].ok);
  EXPECT_EQ(h.first_bad_offset, pristine.index()[3].file_offset);
  EXPECT_EQ(q + ": " + h.note, opened.what);
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
/// guard, its index copy, then the index as reseal_index does.
void reseal_one_block(std::vector<char>& bytes) {
  constexpr std::size_t kBlock = sizeof(trace::SamtHeader);
  trace::SamtBlockHeader h{};
  std::memcpy(&h, bytes.data() + kBlock, sizeof h);
  const std::uint64_t guard = trace::fnv1a_64(
      bytes.data() + kBlock + sizeof h, h.payload_bytes,
      trace::fnv1a_64(&h, sizeof h - sizeof h.guard));
  put_u64(bytes, kBlock + offsetof(trace::SamtBlockHeader, guard), guard);
  put_u64(bytes,
          footer_of(bytes).index_offset + 8 +
              offsetof(trace::SamtIndexEntry, guard),
          guard);
  reseal_index(bytes);
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

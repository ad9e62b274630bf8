// SAMT v2 round-trip, random access, importer atomicity/resume and
// injected-I/O-fault behavior (src/trace/trace_io.h). The fuzz matrix
// for mutated files lives in test_trace_fuzz.cpp; this file covers the
// *intended* v2 behaviors: exact decode, O(1) range reads off the
// index, resumable atomic import, the enospc/torn import faults leaving
// a tmp but never a final file, and bytes that do not depend on how the
// records were handed to the writer.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/instruction.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"
#include "tests/trace_thrown.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool same_ops(const std::vector<trace::MicroOp>& a,
                            const std::vector<trace::MicroOp>& b) {
  static_assert(std::has_unique_object_representations_v<trace::MicroOp>);
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(trace::MicroOp)) == 0);
}

class TraceV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_v2_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    trace::clear_io_faults();
  }
  void TearDown() override {
    trace::clear_io_faults();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// A generated workload: realistic op mix, excellent delta locality.
  [[nodiscard]] static std::vector<trace::MicroOp> workload(std::size_t n) {
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 23);
    return gen.generate(n).ops;
  }

  /// Adversarial records: maximal deltas (sign flips across the whole
  /// address space), all op kinds — so `addr` is coded as a branch target
  /// and as a memory address — and extreme field values: the varint
  /// encoder's worst case.
  [[nodiscard]] static std::vector<trace::MicroOp> adversarial(std::size_t n) {
    std::vector<trace::MicroOp> ops(n);
    Xoshiro256 rng(0xfeedULL);
    for (std::size_t i = 0; i < n; ++i) {
      trace::MicroOp& op = ops[i];
      op.pc = (i % 2 != 0) ? ~std::uint64_t{0} - rng.below(7) : rng();
      op.addr = rng();
      op.value = rng();
      op.op = static_cast<trace::OpClass>(rng.below(10));  // every OpClass
      op.mem_size = static_cast<std::uint8_t>(1u << rng.below(4));
      op.src1 = static_cast<RegId>(rng.below(64));
      op.src2 = static_cast<RegId>(rng.below(64));
      op.dst = static_cast<RegId>(rng.below(64));
      op.taken = rng.below(2) != 0;
    }
    return ops;
  }

  fs::path dir_;
};

TEST_F(TraceV2Test, RoundTripsGeneratedWorkload) {
  const std::vector<trace::MicroOp> ops = workload(10'000);
  const std::string p = path("w.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       512);
  const trace::TraceV2Reader r(p);
  // SamtHeader is packed: compare copies, never references to its fields.
  EXPECT_EQ(std::uint32_t{r.header().version}, trace::kSamtVersion2);
  EXPECT_EQ(std::uint32_t{r.header().record_bytes}, trace::kSamtRecordBytes);
  EXPECT_EQ(std::uint64_t{r.header().seed}, 23U);
  EXPECT_EQ(r.name(), "gcc");
  EXPECT_EQ(r.record_count(), ops.size());
  EXPECT_EQ(r.block_count(), (ops.size() + 511) / 512);
  const trace::Trace t = r.read_all();
  EXPECT_EQ(t.name, "gcc");
  EXPECT_EQ(t.seed, 23U);
  EXPECT_TRUE(same_ops(t.ops, ops));
  // read_samt_header reads the same header without touching the blocks.
  const trace::SamtHeader h = trace::read_samt_header(p);
  EXPECT_EQ(std::uint32_t{h.version}, trace::kSamtVersion2);
  EXPECT_EQ(std::uint64_t{h.count}, ops.size());
}

TEST_F(TraceV2Test, RoundTripsAdversarialRecords) {
  // Worst-case deltas must survive encode/decode exactly, including a
  // block size that doesn't divide the record count.
  const std::vector<trace::MicroOp> ops = adversarial(1'000);
  const std::string p = path("adv.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "adv", 7,
                       96);
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));
}

TEST_F(TraceV2Test, RoundTripsEmptyTrace) {
  const std::string p = path("empty.samt");
  trace::write_samt_v2(p, trace::TraceView(nullptr, 0), "empty", 0);
  const trace::TraceV2Reader r(p);
  EXPECT_EQ(r.record_count(), 0u);
  EXPECT_EQ(r.block_count(), 0u);
  EXPECT_TRUE(r.read_all().ops.empty());
  EXPECT_TRUE(trace::trace_health(p).ok());
}

TEST_F(TraceV2Test, RangeReadsMatchReadAll) {
  const std::vector<trace::MicroOp> ops = workload(5'000);
  const std::string p = path("r.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       256);
  const trace::TraceV2Reader r(p);
  // Ranges chosen to hit: block-aligned, straddling, single-record,
  // clamped-past-the-end, inverted and empty.
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, 5'000}, {0, 256},    {256, 512},    {100, 4'900}, {255, 257},
      {777, 778}, {4'999, 5'000}, {4'000, 99'999}, {42, 42}, {600, 100}};
  for (const auto& [b, e] : ranges) {
    const std::vector<trace::MicroOp> got = r.read_range(b, e);
    const std::uint64_t lo = std::min<std::uint64_t>(b, ops.size());
    const std::uint64_t hi =
        std::max(lo, std::min<std::uint64_t>(e, ops.size()));
    const std::vector<trace::MicroOp> want(
        ops.begin() + static_cast<std::ptrdiff_t>(lo),
        ops.begin() + static_cast<std::ptrdiff_t>(hi));
    EXPECT_TRUE(same_ops(got, want)) << "range [" << b << ", " << e << ")";
  }
}

TEST_F(TraceV2Test, IndexSeeksAreBlockLocal) {
  // A corrupt interior block must only fail reads whose range touches
  // it — reads over other blocks keep working off the intact index.
  const std::vector<trace::MicroOp> ops = workload(4'096);
  const std::string p = path("seek.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       512);
  {
    const trace::TraceV2Reader pristine(p);
    ASSERT_EQ(pristine.block_count(), 8u);
    const std::size_t off =
        static_cast<std::size_t>(pristine.index()[5].file_offset) +
        sizeof(trace::SamtBlockHeader) + 1;
    std::string bytes = slurp(p);
    bytes[off] = static_cast<char>(bytes[off] ^ 0x40);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const trace::TraceV2Reader r(p);  // index intact: construction succeeds
  EXPECT_TRUE(same_ops(r.read_range(0, 5 * 512),
                       {ops.begin(), ops.begin() + 5 * 512}));
  EXPECT_TRUE(same_ops(r.read_range(6 * 512 + 7, 4'096),
                       {ops.begin() + 6 * 512 + 7, ops.end()}));
  const fixture::Thrown bad =
      fixture::thrown_by([&] { return r.read_range(3 * 512, 8 * 512); });
  EXPECT_EQ(bad.type, "TraceCorruptError");
  EXPECT_EQ(bad.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(bad.block, 5u);
}

TEST_F(TraceV2Test, BytesDoNotDependOnHowRecordsAreAppended) {
  // 39 blocks of 512 plus a short one, written from one view, in chunks
  // that straddle blocks, and record by record.
  const std::vector<trace::MicroOp> ops = workload(20'000);
  const std::string p = path("whole.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       512);
  const std::string whole = slurp(p);
  {
    const std::string q = path("chunks.samt");
    trace::TraceWriterV2 w(q, "gcc", 23, 512);
    for (std::size_t at = 0; at < ops.size(); at += 1'700) {
      w.append(trace::TraceView(ops.data() + at,
                                std::min<std::size_t>(1'700, ops.size() - at)));
    }
    w.finish();
    EXPECT_EQ(slurp(q), whole);
  }
  {
    const std::string q = path("singles.samt");
    trace::TraceWriterV2 w(q, "gcc", 23, 512);
    for (const trace::MicroOp& op : ops) w.append(op);
    w.finish();
    EXPECT_EQ(slurp(q), whole);
  }
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));
  const trace::TraceSource s = trace::TraceSource::open_samt(p);
  EXPECT_TRUE(same_ops({s.view().begin(), s.view().end()}, ops));
}

TEST_F(TraceV2Test, VarintsOfEveryLengthRoundTrip) {
  // Field values at both edges of every LEB128 length (1..10 bytes), in
  // pc, addr (a load's memory address and a branch's target) and value,
  // decoded both while a whole record's bytes remain and in the
  // bounds-checked tail of the block.
  std::vector<std::uint64_t> values{0, ~std::uint64_t{0}};
  for (unsigned k = 1; k < 10; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << (7 * k);
    values.insert(values.end(), {edge - 1, edge, edge + 1});
  }
  std::vector<trace::MicroOp> ops;
  for (const std::uint64_t v : values) {
    for (const std::uint64_t w : values) {
      trace::MicroOp load;
      load.op = trace::OpClass::kLoad;
      load.pc = v;
      load.addr = w;
      load.value = w;
      ops.push_back(load);
      trace::MicroOp branch;
      branch.op = trace::OpClass::kBranch;
      branch.pc = v;
      branch.addr = v ^ w;
      branch.value = v;
      ops.push_back(branch);
    }
  }
  const std::string p = path("varints.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "v", 1,
                       97);
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));
}

TEST_F(TraceV2Test, ResumePicksUpIntactBlocksOfATornTmp) {
  const std::vector<trace::MicroOp> ops = workload(2'000);
  const std::string p = path("resume.samt");
  // First attempt dies between block flushes (writer destroyed without
  // finish(), as a SIGKILL would): the flushed whole blocks survive in
  // the tmp, the 464-record partial block is lost, and no final file is
  // ever published.
  {
    trace::TraceWriterV2 w(p, "gcc", 23, 512);
    w.append(trace::TraceView(ops.data(), ops.size()));
  }
  EXPECT_FALSE(fs::exists(p));
  ASSERT_TRUE(fs::exists(trace::TraceWriterV2::tmp_path_for(p)));

  // Resume: only the records past the durable prefix are re-appended.
  trace::TraceWriterV2 w(p, "gcc", 23, 512, trace::TraceWriterV2::Mode::kResume);
  EXPECT_EQ(w.durable_records(), 1536u);  // 3 whole blocks of 512
  w.append(trace::TraceView(ops.data() + w.durable_records(),
                            ops.size() - w.durable_records()));
  w.finish();
  EXPECT_FALSE(fs::exists(trace::TraceWriterV2::tmp_path_for(p)));
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));

  // The resumed file is byte-identical to a never-interrupted write.
  const std::string q = path("oneshot.samt");
  trace::write_samt_v2(q, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       512);
  std::ifstream fa(p, std::ios::binary);
  std::ifstream fb(q, std::ios::binary);
  const std::string ba((std::istreambuf_iterator<char>(fa)),
                       std::istreambuf_iterator<char>());
  const std::string bb((std::istreambuf_iterator<char>(fb)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(ba, bb);
}

TEST_F(TraceV2Test, ResumeRestartsFromAnUnusableTmp) {
  // A tmp whose header this build cannot append to — here a version-1
  // header and records — is not resumed: the writer starts a fresh tmp
  // and the result is the same file a one-shot write produces.
  const std::vector<trace::MicroOp> ops = workload(2'000);
  const std::string p = path("stale.samt");
  {
    trace::SamtHeader h{};
    std::memcpy(h.magic, trace::kSamtMagic, sizeof h.magic);
    h.version = trace::kSamtVersion1;
    h.record_bytes = trace::kSamtRecordBytes;
    h.count = 600;
    std::string bytes(sizeof h + 600 * trace::kSamtRecordBytes, '\0');
    std::memcpy(bytes.data(), &h, sizeof h);
    std::ofstream(trace::TraceWriterV2::tmp_path_for(p), std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  trace::TraceWriterV2 w(p, "gcc", 23, 512, trace::TraceWriterV2::Mode::kResume);
  EXPECT_EQ(w.durable_records(), 0u);
  w.append(trace::TraceView(ops.data(), ops.size()));
  w.finish();
  EXPECT_FALSE(fs::exists(trace::TraceWriterV2::tmp_path_for(p)));
  const std::string q = path("oneshot.samt");
  trace::write_samt_v2(q, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       512);
  EXPECT_EQ(slurp(p), slurp(q));
}

TEST_F(TraceV2Test, EnospcFaultKeepsTmpNeverFinal) {
  const std::vector<trace::MicroOp> ops = workload(600);
  const std::string p = path("enospc.samt");
  trace::set_io_fault(p, {trace::IoFault::Kind::kEnospcOnImport, 0});
  EXPECT_THROW(
      trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                           23, 256),
      trace::TraceFormatError);
  EXPECT_FALSE(fs::exists(p)) << "a failed import must not publish a file";
  EXPECT_TRUE(fs::exists(trace::TraceWriterV2::tmp_path_for(p)));
  // The fault was consumed: a retry on the same path succeeds.
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       256);
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));
}

TEST_F(TraceV2Test, ShortReadFaultReadsAsTornTail) {
  const std::vector<trace::MicroOp> ops = workload(1'000);
  const std::string p = path("short.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       256);
  trace::set_io_fault(p, {trace::IoFault::Kind::kShortRead, 100});
  const fixture::Thrown short_read =
      fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
  EXPECT_EQ(short_read.type, "TraceCorruptError");
  EXPECT_EQ(short_read.damage, trace::TraceDamage::kTornTail);
  // Consumed: the next open sees the intact file.
  EXPECT_TRUE(same_ops(trace::TraceV2Reader(p).read_all().ops, ops));
}

TEST_F(TraceV2Test, BitFlipFaultReadsAsInteriorCorruption) {
  const std::vector<trace::MicroOp> ops = workload(1'000);
  const std::string p = path("flip.samt");
  trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc", 23,
                       256);
  trace::set_io_fault(p, {trace::IoFault::Kind::kBitFlipBlock, 2});
  const fixture::Thrown flip =
      fixture::thrown_by([&] { return trace::TraceSource::open_samt(p); });
  EXPECT_EQ(flip.type, "TraceCorruptError");
  EXPECT_EQ(flip.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(flip.block, 2u);
  // In-memory flip only: the file on disk is still clean.
  EXPECT_TRUE(trace::trace_health(p).ok());
}

}  // namespace
}  // namespace samie

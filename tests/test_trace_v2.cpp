// SAMT v2 round-trip, writer atomicity and injected-I/O-fault behavior
// (src/trace/trace_io.h). The fuzz matrix for mutated files lives in
// test_trace_fuzz.cpp; this file covers the *intended* v2 behaviors:
// exact decode, a failed write (the enospc fault, refused blocks)
// leaving neither a final file nor a tmp, and encoded blocks writing the
// bytes their records do.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
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

TEST_F(TraceV2Test, SourceBlocksWriteTheBytesOfTheirRecords) {
  // A generated source holds the bytes write_samt_v2 writes between the
  // header and the index (a group of four blocks and one short block
  // here), so writing its blocks as they are gives the same file.
  const trace::TraceSource src = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), 23, 20'000);
  const std::string p = path("encoded.samt");
  trace::write_samt_v2(p, src.view(), "gcc", 23);
  const std::string q = path("blocks.samt");
  trace::write_samt_v2(q, src.blocks(), "gcc", 23);
  EXPECT_EQ(slurp(q), slurp(p));

  // Blocks that are not one trace's from record 0 are refused whole,
  // leaving no file and no tmp: the same blocks from the second one on,
  // and all of them with the last one cut short.
  trace::SamtBlockHeader first{};
  std::memcpy(&first, src.blocks().data(), sizeof first);
  const std::string r = path("refused.samt");
  for (const std::span<const unsigned char> blocks :
       {src.blocks().subspan(sizeof first + first.payload_bytes),
        src.blocks().first(src.blocks().size() - 1)}) {
    EXPECT_THROW(trace::write_samt_v2(r, blocks, "gcc", 23),
                 trace::TraceFormatError);
    EXPECT_FALSE(fs::exists(r));
    EXPECT_FALSE(fs::exists(r + ".tmp"));
  }
}

TEST_F(TraceV2Test, VarintsOfEveryLengthRoundTrip) {
  // Field values at both edges of every LEB128 length (1..10 bytes), in
  // pc, addr (a load's memory address and a branch's target) and value,
  // decoded both while a whole record's bytes remain and in the
  // bounds-checked tail of the block. The file's bytes are pinned too: a
  // writer that encodes an edge value differently, yet decodably, is a
  // format change.
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
  const std::string bytes = slurp(p);
  EXPECT_EQ(bytes.size(), 28'033u);
  EXPECT_EQ(trace::fnv1a_64(bytes.data(), bytes.size()),
            0x25456602200526e3ULL);
}

TEST_F(TraceV2Test, EnospcFaultLeavesNeitherFileNorTmp) {
  const std::vector<trace::MicroOp> ops = workload(600);
  const std::string p = path("enospc.samt");
  trace::set_io_fault(p, {trace::IoFault::Kind::kEnospcOnImport, 0});
  EXPECT_THROW(
      trace::write_samt_v2(p, trace::TraceView(ops.data(), ops.size()), "gcc",
                           23, 256),
      trace::TraceFormatError);
  EXPECT_FALSE(fs::exists(p)) << "a failed write must not publish a file";
  EXPECT_FALSE(fs::exists(p + ".tmp")) << "a failed write removes its tmp";
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

// SAMT — the repo's versioned binary trace format — plus a plain-text
// import path for traces recorded by external simulators.
//
// Both versions start with the same 64-byte SamtHeader, and readers
// autodetect the version from it. Version 2 (block-guarded,
// delta-encoded and indexed; layout further down) is the only version
// this build writes. Version 1 is read-only: the header followed by
// 40-byte records (SamtV1Record) under one whole-file checksum (all
// fields little-endian):
//
//   [SamtHeader: 64 bytes]  magic "SAMTRACE", version, record size,
//                           record count, generator seed, FNV-1a checksum
//                           of the record bytes, NUL-padded profile name
//   [count x SamtV1Record: 40 bytes each]
//
// A v1 record carries a memory address and a branch target in separate
// fields; the 32-byte in-memory MicroOp holds one address, so
// TraceReader converts each record as it reads it.
// docs/TRACE_FORMAT.md specifies both versions and the versioning rules.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/trace/instruction.h"
#include "src/trace/trace_view.h"

namespace samie::trace {

/// Any malformed SAMT or text-trace input: bad magic, version or record
/// size mismatch, truncation, checksum failure, unparseable text line.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How a damaged-but-recognizable SAMT v2 file is broken. The taxonomy is
/// what the sweep scheduler keys quarantine decisions on (torn tails are
/// what a killed import leaves behind; interior corruption and a bad
/// index point at damaged media).
enum class TraceDamage : std::uint8_t {
  kNone = 0,
  /// The file ends early: missing/garbled footer, or a final block cut
  /// short. Everything before the tear is intact.
  kTornTail,
  /// A block in the middle of the file fails its guard; the footer and
  /// index are intact, so every other block is still addressable.
  kInteriorCorrupt,
  /// The footer points at an index that is inconsistent, fails its guard,
  /// or disagrees with the header binding — no block is trustworthy.
  kBadIndex,
};

[[nodiscard]] const char* trace_damage_name(TraceDamage d) noexcept;

/// Structured damage: a TraceFormatError that additionally carries the
/// damage class, the damaged block and its file offset, so the sweep
/// scheduler can quarantine precisely instead of failing generically.
class TraceCorruptError : public TraceFormatError {
 public:
  TraceCorruptError(const std::string& what, TraceDamage damage,
                    std::uint64_t block, std::uint64_t offset)
      : TraceFormatError(what), damage(damage), block(block), offset(offset) {}

  TraceDamage damage;
  std::uint64_t block;   ///< damaged block index (kNoBlock if not per-block)
  std::uint64_t offset;  ///< file byte offset where the damage starts

  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};
};

inline constexpr std::uint32_t kSamtVersion = 1;
inline constexpr std::uint32_t kSamtVersion2 = 2;
inline constexpr char kSamtMagic[8] = {'S', 'A', 'M', 'T', 'R', 'A', 'C', 'E'};
/// The `record_bytes` of every SAMT header: the size of v1's on-disk
/// record, which for v2 names the field set each encoded record carries.
/// It is a format constant, not sizeof(MicroOp): readers reject any other
/// value, so a record layout change is a version change.
inline constexpr std::uint32_t kSamtRecordBytes = 40;

#pragma pack(push, 1)
struct SamtHeader {
  char magic[8];                ///< "SAMTRACE" (not NUL-terminated)
  std::uint32_t version = kSamtVersion;
  std::uint32_t record_bytes = 0;  ///< kSamtRecordBytes; rejects drift
  std::uint64_t count = 0;         ///< records after the header
  std::uint64_t seed = 0;          ///< provenance (generator seed, or 0)
  std::uint64_t checksum = 0;      ///< FNV-1a 64 over all record bytes
  char name[24] = {};              ///< profile/program name, NUL-padded
};
#pragma pack(pop)
static_assert(sizeof(SamtHeader) == 64, "SAMT header is 64 bytes");

/// One SAMT v1 record as it lies on disk. Every byte is a plain integer,
/// so any file content reads without undefined behaviour. A MicroOp's
/// `addr` is whichever of `mem_addr` and `br_target` is set; a record
/// that sets both, or whose `taken` byte is above 1, is outside the
/// record domain.
struct SamtV1Record {
  std::uint64_t pc = 0;
  std::uint64_t mem_addr = 0;   ///< loads/stores, else 0
  std::uint64_t br_target = 0;  ///< branches, else 0
  std::uint64_t value = 0;
  std::uint8_t op = 0;  ///< OpClass
  std::uint8_t mem_size = 0;
  std::uint8_t src1 = kNoReg;
  std::uint8_t src2 = kNoReg;
  std::uint8_t dst = kNoReg;
  std::uint8_t taken = 0;
  std::uint8_t pad[2] = {0, 0};  ///< zero
};

// Pin v1's layout: a build whose SamtV1Record drifted must not compile.
static_assert(std::endian::native == std::endian::little,
              "SAMT I/O assumes a little-endian host");
static_assert(sizeof(SamtV1Record) == kSamtRecordBytes);
static_assert(offsetof(SamtV1Record, pc) == 0);
static_assert(offsetof(SamtV1Record, mem_addr) == 8);
static_assert(offsetof(SamtV1Record, br_target) == 16);
static_assert(offsetof(SamtV1Record, value) == 24);
static_assert(offsetof(SamtV1Record, op) == 32);
static_assert(offsetof(SamtV1Record, mem_size) == 33);
static_assert(offsetof(SamtV1Record, src1) == 34);
static_assert(offsetof(SamtV1Record, src2) == 35);
static_assert(offsetof(SamtV1Record, dst) == 36);
static_assert(offsetof(SamtV1Record, taken) == 37);
static_assert(offsetof(SamtV1Record, pad) == 38);

/// FNV-1a 64-bit over `n` bytes, continuing from `h` (pass the offset
/// basis for a fresh hash).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a_64(const void* bytes, std::size_t n,
                                     std::uint64_t h = kFnvBasis) noexcept;

/// Reads and validates only the 64-byte header (magic, version, record
/// size, file length vs count). Cheap: does not touch the records.
[[nodiscard]] SamtHeader read_samt_header(const std::string& path);

/// SAMT v1 reader: validates the header, then reads the records and
/// converts each to a MicroOp.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  [[nodiscard]] const SamtHeader& header() const noexcept { return header_; }
  [[nodiscard]] std::string name() const;
  /// Reads and converts all records. Throws TraceFormatError on
  /// truncation or checksum mismatch (`verify_checksum = false` skips
  /// the checksum pass, nothing else), then
  /// TraceCorruptError(kInteriorCorrupt) for the first record outside
  /// the record domain, naming it, with kNoBlock and the record's own
  /// file offset.
  [[nodiscard]] Trace read_all(bool verify_checksum = true) const;

 private:
  std::string path_;
  SamtHeader header_{};
};

// ------------------------------------------------------------- SAMT v2 --
//
// Version 2 keeps the 64-byte SamtHeader but replaces the raw record
// array with guarded, delta-encoded blocks plus a footer index:
//
//   [SamtHeader]            version = 2; `checksum` is FNV-1a over the
//                           whole index region (binds header <-> index)
//   [block]*                32-byte SamtBlockHeader + varint payload,
//                           each guarded by its own FNV-1a
//   [index region]          u32 "SIDX" magic, u32 block_count,
//                           block_count x SamtIndexEntry, u64 guard
//                           (FNV-1a over everything before the guard)
//   [SamtFooter: 32 bytes]  "SAMTIDX2", index offset + size, guard
//
// Delta state (previous pc, previous memory address) resets at every
// block boundary, so any block decodes independently of its neighbors —
// that is what makes O(1) random seeks possible and keeps damage local
// to one block. Full layout and damage taxonomy: docs/TRACE_FORMAT.md.

inline constexpr std::uint32_t kBlockMagic = 0x4B4C4253;   // "SBLK" (LE)
inline constexpr std::uint32_t kIndexMagic = 0x58444953;   // "SIDX" (LE)
inline constexpr char kFooterMagic[8] = {'S', 'A', 'M', 'T',
                                         'I', 'D', 'X', '2'};
/// Default records per block: big enough to amortize headers and let the
/// deltas compress, small enough that damage costs little.
inline constexpr std::uint32_t kDefaultBlockRecords = 4096;

#pragma pack(push, 1)
struct SamtBlockHeader {
  std::uint32_t magic = kBlockMagic;
  std::uint32_t record_count = 0;
  std::uint64_t first_record = 0;  ///< global index of the first record
  std::uint32_t payload_bytes = 0;
  std::uint32_t reserved = 0;
  /// FNV-1a over the 24 header bytes above, continued over the payload.
  std::uint64_t guard = 0;
};

struct SamtIndexEntry {
  std::uint64_t file_offset = 0;  ///< of the SamtBlockHeader
  std::uint64_t first_record = 0;
  std::uint32_t record_count = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t guard = 0;  ///< copy of the block's guard
};

struct SamtFooter {
  char magic[8] = {};  ///< "SAMTIDX2"
  std::uint64_t index_offset = 0;
  std::uint64_t index_bytes = 0;  ///< magic + count + entries + guard
  std::uint64_t guard = 0;        ///< FNV-1a over the 24 bytes above
};
#pragma pack(pop)
static_assert(sizeof(SamtBlockHeader) == 32);
static_assert(sizeof(SamtIndexEntry) == 32);
static_assert(sizeof(SamtFooter) == 32);

// ------------------------------------------------------ I/O fault hooks --

/// Deterministic I/O fault injection for the robustness test matrix. A
/// fault armed against a path is consumed by the next reader open
/// (kShortRead, kBitFlipBlock) or writer finish (kEnospcOnImport,
/// kTornImport) touching that path, then disarms itself.
struct IoFault {
  enum class Kind : std::uint8_t {
    kNone = 0,
    /// Reader sees the file `param` bytes shorter than it is (0 = 64):
    /// a torn tail without touching the media.
    kShortRead,
    /// Reader flips one bit in block `param`'s payload after reading it:
    /// interior corruption without touching the media.
    kBitFlipBlock,
    /// Writer finish() fails as if the disk filled before the trace was
    /// sealed. The final path is untouched; the tmp is kept for resume.
    kEnospcOnImport,
    /// Writer finish() dies mid-block: a torn tmp file survives (no
    /// index, no rename) exactly as a SIGKILLed import would leave it.
    kTornImport,
  };
  Kind kind = Kind::kNone;
  std::uint64_t param = 0;
};

/// Arms `fault` against `path` (process-global, thread-safe). A default
/// constructed fault disarms.
void set_io_fault(const std::string& path, IoFault fault);
/// Disarms every armed fault (test teardown).
void clear_io_faults();

// ------------------------------------------------------------ v2 health --

/// Per-block verification outcome from a full damage walk.
struct BlockHealth {
  std::uint64_t file_offset = 0;
  std::uint64_t first_record = 0;
  std::uint32_t record_count = 0;
  bool ok = false;
};

/// Full-file damage report: what trace_inspector --verify prints.
struct TraceHealth {
  std::uint32_t version = 0;
  TraceDamage damage = TraceDamage::kNone;
  std::uint64_t record_count = 0;   ///< per the header
  std::uint64_t bad_blocks = 0;
  /// File offset of the first damaged region (block-granular for block
  /// damage); ~0 when clean.
  std::uint64_t first_bad_offset = ~std::uint64_t{0};
  std::vector<BlockHealth> blocks;  ///< empty for kBadIndex / v1

  [[nodiscard]] bool ok() const noexcept {
    return damage == TraceDamage::kNone;
  }
};

/// Walks the whole file (v1 or v2) verifying every guard, and reports
/// damage instead of throwing for it. Throws TraceFormatError only when
/// the file is not a SAMT trace at all (unopenable, bad magic/version).
[[nodiscard]] TraceHealth trace_health(const std::string& path);

// ------------------------------------------------------------ v2 writer --

/// Streaming SAMT v2 writer with atomic, resumable publication. All
/// writes go to `path + ".tmp"`. Blocks are written and flushed strictly
/// in index order, each as soon as the next one is encoded (its guard
/// is hashed alongside that encode), so a killed import loses at most
/// the two blocks in flight and kResume keeps the intact prefix;
/// `finish()` writes index + footer, patches the header, fsyncs and
/// renames into place (readers never observe a partial file at `path`).
/// An unfinished tmp is *kept* on destruction — kResume picks its intact
/// blocks back up.
class TraceWriterV2 {
 public:
  enum class Mode : std::uint8_t {
    kTruncate,  ///< start a fresh tmp
    kResume,    ///< keep the intact leading blocks of an existing tmp
  };

  TraceWriterV2(const std::string& path, const std::string& name,
                std::uint64_t seed,
                std::uint32_t block_records = kDefaultBlockRecords,
                Mode mode = Mode::kTruncate);
  TraceWriterV2(const TraceWriterV2&) = delete;
  TraceWriterV2& operator=(const TraceWriterV2&) = delete;
  /// Keeps the tmp file if finish() was never called (resumable).
  ~TraceWriterV2();

  /// Records already durable in the resumed tmp (0 for kTruncate). The
  /// caller appends from this record onward.
  [[nodiscard]] std::uint64_t durable_records() const noexcept;

  void append(const MicroOp& op);
  /// Whole blocks are encoded straight from `ops`, without a copy.
  void append(TraceView ops);
  /// Flushes the final block, writes index + footer, patches the header,
  /// fsyncs and atomically renames the tmp into place.
  void finish();
  /// Explicitly discards the tmp file (the destructor never does).
  void abandon() noexcept;

  [[nodiscard]] static std::string tmp_path_for(const std::string& path) {
    return path + ".tmp";
  }

 private:
  void flush_block();
  /// Encodes `count` records as consecutive blocks of block_records_
  /// (the last may be short) and writes them in index order.
  void write_blocks(const MicroOp* ops, std::size_t count);

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  SamtHeader header_{};
  std::uint32_t block_records_ = kDefaultBlockRecords;
  std::uint64_t durable_records_ = 0;
  std::vector<MicroOp> pending_;       ///< records of the open block
  std::vector<SamtIndexEntry> index_;  ///< blocks written so far
  std::uint64_t write_offset_ = 0;     ///< next block's file offset
};

/// Convenience: writes a whole v2 trace in one call.
void write_samt_v2(const std::string& path, TraceView ops,
                   const std::string& name, std::uint64_t seed,
                   std::uint32_t block_records = kDefaultBlockRecords);

// ------------------------------------------------------------ v2 reader --

/// A read-only file descriptor, closed on destruction. Move-only.
class FileHandle {
 public:
  explicit FileHandle(int fd) noexcept : fd_(fd) {}
  FileHandle(FileHandle&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FileHandle& operator=(FileHandle&&) = delete;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;
  ~FileHandle();

  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

/// SAMT v2 reader. Construction opens the file once and validates
/// header, footer and index eagerly (classifying damage into
/// TraceCorruptError); every later read goes through that descriptor.
/// Block payloads are read and guard-verified lazily, on the first read
/// that touches them — a corrupt block only fails the reads whose range
/// covers it. A read that spans several blocks walks them in index order
/// and reports the lowest-index damaged block.
class TraceV2Reader {
 public:
  explicit TraceV2Reader(const std::string& path);
  /// Opens `path` once and validates its header exactly as
  /// read_samt_header does (same checks, same errors). Returns a reader
  /// over that descriptor for a v2 file, and nullopt for a v1 file,
  /// whose records the caller reads its own way.
  [[nodiscard]] static std::optional<TraceV2Reader> open_if_v2(
      const std::string& path);

  [[nodiscard]] const SamtHeader& header() const noexcept { return header_; }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return header_.count;
  }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return index_.size();
  }
  [[nodiscard]] const std::vector<SamtIndexEntry>& index() const noexcept {
    return index_;
  }

  /// Decodes records [begin, end) (clamped to the trace), verifying each
  /// touched block's guard. Throws TraceCorruptError on damage.
  [[nodiscard]] std::vector<MicroOp> read_range(std::uint64_t begin,
                                                std::uint64_t end) const;
  /// Decodes the whole trace.
  [[nodiscard]] Trace read_all() const;
  /// read_all, also checking every record against the record domain
  /// (record_domain_violation) while its block is decoded. Block damage
  /// anywhere wins over a domain violation; otherwise the lowest-index
  /// record outside the domain throws TraceCorruptError(kInteriorCorrupt)
  /// naming the record, its block and the block's file offset.
  [[nodiscard]] Trace read_all_in_domain() const;

 private:
  TraceV2Reader(const std::string& path, FileHandle file);
  /// Validates header, footer and index through file_ (constructors).
  void load_layout();
  /// Appends records [begin, end) to `out`; see decode_blocks.
  [[nodiscard]] std::uint64_t decode(std::uint64_t begin, std::uint64_t end,
                                     std::vector<MicroOp>& out,
                                     bool check_domain) const;

  std::string path_;
  IoFault fault_;  ///< armed fault consumed at open, applied on reads
  FileHandle file_;
  SamtHeader header_{};
  std::vector<SamtIndexEntry> index_;
};

/// Imports a plain-text trace (one op per line: class, addr, size, dep
/// distances — grammar in docs/TRACE_FORMAT.md). PCs, registers and
/// oracle load values are synthesized so the imported trace satisfies the
/// same invariants as a generated one. Throws TraceFormatError naming the
/// offending line on malformed input.
[[nodiscard]] Trace import_text_trace(const std::string& path);

/// The same importer over an already-read text buffer (`origin` names the
/// source in error messages).
[[nodiscard]] Trace import_text_trace_from_string(const std::string& text,
                                                  const std::string& origin);

}  // namespace samie::trace

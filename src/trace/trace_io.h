// SAMT — the repo's versioned binary trace format — plus a plain-text
// import path for traces recorded by external simulators.
//
// A SAMT file is a 64-byte SamtHeader followed by guarded,
// delta-encoded blocks, an index and a footer (layout further down).
// Version 2 is the only version this build reads or writes. A version-1
// file (the retired flat record array) is recognised by its header and
// refused by every reader with one TraceFormatError naming the last
// commit whose samt_convert upgrades it (kSamtV1ConvertCommit).
// docs/TRACE_FORMAT.md specifies the format and the versioning rules.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
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

/// The SAMT version this build reads and writes.
inline constexpr std::uint32_t kSamtVersion2 = 2;
/// The retired version 1, a flat array of 40-byte records under one
/// whole-file checksum. Its header is still recognised, so that every
/// reader refuses it with the same message: convert the file with
/// samt_convert as built at kSamtV1ConvertCommit.
inline constexpr std::uint32_t kSamtVersion1 = 1;
/// The last commit whose readers accept SAMT v1 and whose samt_convert
/// upgrades a v1 file to v2.
inline constexpr char kSamtV1ConvertCommit[] = "0771f2e17176";
inline constexpr char kSamtMagic[8] = {'S', 'A', 'M', 'T', 'R', 'A', 'C', 'E'};
/// The `record_bytes` of every SAMT header. For v2 it names the field
/// set each encoded record carries (it was v1's on-disk record size).
/// It is a format constant, not sizeof(MicroOp): readers reject any other
/// value, so a record layout change is a version change.
inline constexpr std::uint32_t kSamtRecordBytes = 40;

#pragma pack(push, 1)
struct SamtHeader {
  char magic[8];                ///< "SAMTRACE" (not NUL-terminated)
  std::uint32_t version = kSamtVersion2;
  std::uint32_t record_bytes = 0;  ///< kSamtRecordBytes; rejects drift
  std::uint64_t count = 0;         ///< records in the file
  std::uint64_t seed = 0;          ///< provenance (generator seed, or 0)
  std::uint64_t checksum = 0;      ///< FNV-1a 64 over the index region
  char name[24] = {};              ///< profile/program name, NUL-padded
};
#pragma pack(pop)
static_assert(sizeof(SamtHeader) == 64, "SAMT header is 64 bytes");
static_assert(std::endian::native == std::endian::little,
              "SAMT I/O assumes a little-endian host");

/// FNV-1a 64-bit over `n` bytes, continuing from `h` (pass the offset
/// basis for a fresh hash).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a_64(const void* bytes, std::size_t n,
                                     std::uint64_t h = kFnvBasis) noexcept;

/// Reads and validates only the 64-byte header (magic, version, record
/// size). Cheap: does not touch the blocks.
[[nodiscard]] SamtHeader read_samt_header(const std::string& path);

// ---------------------------------------------------------------- layout --
//
// After the 64-byte SamtHeader come guarded, delta-encoded blocks and a
// footer index:
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
  /// The damage an open reports, as its TraceCorruptError states it
  /// after the path: a torn tail's or bad index's verdict, else the
  /// lowest block that fails its guard, else the first record outside
  /// the record domain. Empty when clean.
  std::string note;
  std::vector<BlockHealth> blocks;  ///< empty for kTornTail / kBadIndex

  [[nodiscard]] bool ok() const noexcept {
    return damage == TraceDamage::kNone;
  }
};

/// Walks the whole file making every check an open makes (every guard,
/// and every record against the record domain), and reports damage
/// instead of throwing for it: a block that fails its guard or holds a
/// record outside the domain is a bad block. Throws TraceFormatError
/// only when the file is not a SAMT v2 trace at all (unopenable, bad
/// magic, version or record size), with read_samt_header's message.
[[nodiscard]] TraceHealth trace_health(const std::string& path);

// ------------------------------------------------------------ v2 writer --

/// Streaming SAMT v2 writer with atomic, resumable publication. All
/// writes go to `path + ".tmp"`. Blocks are encoded in groups of up to
/// four, whose guards are hashed together, and each group is written and
/// flushed in index order as soon as it is encoded, so a killed import
/// loses at most the four blocks in flight and kResume keeps the intact
/// prefix; `finish()` writes index + footer, patches the header, fsyncs
/// and renames into place (readers never observe a partial file at
/// `path`). An unfinished tmp is *kept* on destruction — kResume picks
/// its intact blocks back up.
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
  /// Writes blocks that are already encoded, such as a TraceSource's
  /// blocks(), as they are, and indexes each from its header. They must
  /// continue the trace: no single record may be pending, and the first
  /// block starts at durable_records(). Throws TraceFormatError, writing
  /// nothing, when they do not.
  void append_blocks(std::span<const unsigned char> blocks);
  /// Flushes the final block, writes index + footer, patches the header,
  /// fsyncs and atomically renames the tmp into place.
  void finish();

  [[nodiscard]] static std::string tmp_path_for(const std::string& path) {
    return path + ".tmp";
  }

 private:
  void flush_block();
  /// Encodes `count` records as consecutive blocks of block_records_
  /// (the last may be short) and writes them in index order.
  void write_blocks(const MicroOp* ops, std::size_t count);
  /// Writes the whole blocks at `blocks` and enters each in the index.
  void write_indexed(const unsigned char* blocks, std::size_t bytes);

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

/// A read-only file descriptor, closed on destruction.
class FileHandle {
 public:
  explicit FileHandle(int fd) noexcept : fd_(fd) {}
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
/// Both reads check every block as an open does, on its raw bytes: in
/// index order, its header against the index, its guard (hashed four
/// blocks at a time), then each record's decodability. The lowest
/// damaged block throws, with the verdict of its first failing check.
class TraceV2Reader {
 public:
  /// Validates the header exactly as read_samt_header does (same
  /// checks, same errors), then the footer and index.
  explicit TraceV2Reader(const std::string& path);

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
  /// Records in the largest block (0 for an empty trace).
  [[nodiscard]] std::uint32_t max_block_records() const noexcept;

  /// Checks every block and decodes the whole trace. The codec is
  /// format-level: records outside the record domain are returned as
  /// the file holds them. Throws TraceCorruptError on damage.
  [[nodiscard]] Trace read_all() const;
  /// Reads every block into memory as the file holds it (see "resident
  /// blocks" below), checking each block and every record against the
  /// record domain (record_domain_violation) without decoding one. Block
  /// damage anywhere wins over a domain violation, and the lowest damaged
  /// block throws; otherwise the lowest-index record outside the domain
  /// throws TraceCorruptError(kInteriorCorrupt) naming the record, its
  /// block and the block's file offset.
  [[nodiscard]] std::vector<unsigned char> read_blocks_in_domain() const;

 private:
  std::string path_;
  IoFault fault_;  ///< armed fault consumed at open, applied on reads
  FileHandle file_;
  SamtHeader header_{};
  std::vector<SamtIndexEntry> index_;
};

// ------------------------------------------------------- resident blocks --
//
// A trace held in memory (TraceSource) is its v2 blocks, laid out as a
// file holds them between its header and its index: each block is a
// SamtBlockHeader and its payload, guard included, in record order.
// Readers decode a block where its records are needed (TraceWindow), so
// a resident trace costs its encoded size, about 9 bytes a record,
// instead of 32.

/// The most bytes encode_blocks writes for `n` records in blocks of
/// `block_records`. Throws std::length_error when no address space
/// holds that many.
[[nodiscard]] std::size_t max_encoded_bytes(std::uint64_t n,
                                            std::uint32_t block_records);

/// Encodes `n` records as consecutive blocks of `block_records` (the
/// last may be short) at `out`, which has room for max_encoded_bytes(n,
/// block_records), and returns the bytes written: the bytes
/// write_samt_v2 writes between its header and its index. `fill(dst, k)`
/// writes each block's k records, the next ones of the trace, to
/// dst[0, k).
std::size_t encode_blocks(
    std::uint64_t n, std::uint32_t block_records, unsigned char* out,
    const std::function<void(MicroOp*, std::size_t)>& fill);

/// Decodes the block at `block`, which encode_blocks wrote or a reader
/// checked, writing global record r field by field to ring[r & mask].
/// Checks nothing. Returns the block's header: the next block starts
/// payload_bytes past it.
SamtBlockHeader decode_resident_block(const unsigned char* block,
                                      MicroOp* ring,
                                      std::uint64_t mask) noexcept;

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

#include "src/trace/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/fsync_dir.h"
#include "src/common/sparse_memory.h"

namespace samie::trace {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw TraceFormatError(path + ": " + what);
}

[[noreturn]] void fail_record_bytes(const std::string& path,
                                   const SamtHeader& h) {
  fail(path, "record size " + std::to_string(h.record_bytes) +
                 " is not SAMT's " + std::to_string(kSamtRecordBytes) +
                 " bytes");
}

void validate_header(const std::string& path, const SamtHeader& h) {
  if (std::memcmp(h.magic, kSamtMagic, sizeof kSamtMagic) != 0) {
    fail(path, "not a SAMT trace (bad magic)");
  }
  if (h.version == kSamtVersion1) {
    fail(path, std::string("SAMT version 1 is no longer read; convert the "
                           "file to version 2 with samt_convert built at "
                           "commit ") +
                   kSamtV1ConvertCommit + ", the last that reads version 1");
  }
  if (h.version != kSamtVersion2) {
    fail(path, "unsupported SAMT version " + std::to_string(h.version) +
                   " (this build reads version 2)");
  }
  if (h.record_bytes != kSamtRecordBytes) fail_record_bytes(path, h);
}

[[nodiscard]] std::string header_name(const SamtHeader& h) {
  const std::size_t len = ::strnlen(h.name, sizeof h.name);
  return std::string(h.name, len);
}

[[nodiscard]] FileHandle open_file(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) fail(path, std::string("cannot open: ") + std::strerror(errno));
  return FileHandle(fd);
}

[[nodiscard]] std::uint64_t file_size_of(const std::string& path, int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail(path, "stat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

/// Reads up to `n` bytes at `offset` (pread: the descriptor's file
/// position is left alone), stopping early only at the end of the file
/// or on an error. Returns the bytes read.
[[nodiscard]] std::size_t read_upto(int fd, std::uint64_t offset, void* dst,
                                    std::size_t n) noexcept {
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r =
        ::pread(fd, p + got, n - got, static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// Reads exactly `n` bytes at `offset`. False on a short read.
[[nodiscard]] bool read_at(int fd, std::uint64_t offset, void* dst,
                           std::size_t n) noexcept {
  return read_upto(fd, offset, dst, n) == n;
}

/// read_samt_header's checks on an open file of which the first `bytes`
/// are visible.
[[nodiscard]] SamtHeader read_header(const std::string& path, int fd,
                                     std::uint64_t bytes) {
  SamtHeader h{};
  if (bytes < sizeof h || !read_at(fd, 0, &h, sizeof h)) {
    fail(path, "too short for a SAMT header");
  }
  validate_header(path, h);
  return h;
}

// Armed I/O faults, keyed by path. Consumed (erased) by the first reader
// open / writer finish that looks its path up.
std::mutex g_io_fault_mu;
std::unordered_map<std::string, IoFault> g_io_faults;

[[nodiscard]] IoFault take_io_fault(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_io_fault_mu);
  const auto it = g_io_faults.find(path);
  if (it == g_io_faults.end()) return IoFault{};
  const IoFault f = it->second;
  g_io_faults.erase(it);
  return f;
}

/// Bytes a short-read fault hides from the reader (0 defaults to 64: the
/// whole footer plus half the index header of a small file).
[[nodiscard]] std::uint64_t short_read_cut(const IoFault& f) noexcept {
  if (f.kind != IoFault::Kind::kShortRead) return 0;
  return f.param != 0 ? f.param : 64;
}

}  // namespace

FileHandle::~FileHandle() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t fnv1a_64(const void* bytes, std::size_t n,
                       std::uint64_t h) noexcept {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

const char* trace_damage_name(TraceDamage d) noexcept {
  switch (d) {
    case TraceDamage::kNone:
      return "none";
    case TraceDamage::kTornTail:
      return "torn-tail";
    case TraceDamage::kInteriorCorrupt:
      return "interior-corrupt";
    case TraceDamage::kBadIndex:
      return "bad-index";
  }
  return "?";
}

void set_io_fault(const std::string& path, IoFault fault) {
  const std::lock_guard<std::mutex> lock(g_io_fault_mu);
  if (fault.kind == IoFault::Kind::kNone) {
    g_io_faults.erase(path);
  } else {
    g_io_faults[path] = fault;
  }
}

void clear_io_faults() {
  const std::lock_guard<std::mutex> lock(g_io_fault_mu);
  g_io_faults.clear();
}

// ------------------------------------------------------------ SAMT header --

SamtHeader read_samt_header(const std::string& path) {
  const FileHandle f = open_file(path, O_RDONLY);
  return read_header(path, f.get(), file_size_of(path, f.get()));
}

// ----------------------------------------------------------- SAMT v2 -----

namespace {

// --- varint / zigzag codecs -----------------------------------------------

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::uint64_t delta)
    noexcept {
  const auto v = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::uint64_t zigzag_decode(std::uint64_t u) noexcept {
  return (u >> 1) ^ (~(u & 1) + 1);
}

// Values below 2^56 take at most eight LEB128 bytes, which one 64-bit
// word holds: byte k carries bits 7k..7k+6 in its low seven bits and a
// continuation flag in its top bit. spread7 and pack7 move the 7-bit
// groups between a value and such a word, so the common lengths encode
// and decode without a loop (words are little-endian, like the raw
// headers of the format). A longer value is that word for its low 56
// bits, every flag set, then one or two bytes for bits 56..63.

constexpr std::uint64_t kVarintFlags = 0x8080808080808080ULL;

/// The 7-bit groups of `v` (< 2^56) in the low bits of bytes 0..7.
[[nodiscard]] constexpr std::uint64_t spread7(std::uint64_t v) noexcept {
  v = (v & 0x000000000FFFFFFFULL) | ((v & 0x00FFFFFFF0000000ULL) << 4);
  v = (v & 0x00003FFF00003FFFULL) | ((v & 0x0FFFC0000FFFC000ULL) << 2);
  return (v & 0x007F007F007F007FULL) | ((v & 0x3F803F803F803F80ULL) << 1);
}

/// Inverse of spread7: the low seven bits of bytes 0..7 of `w`, packed.
[[nodiscard]] constexpr std::uint64_t pack7(std::uint64_t w) noexcept {
  w &= ~kVarintFlags;
  w = (w & 0x007F007F007F007FULL) | ((w & 0x7F007F007F007F00ULL) >> 1);
  w = (w & 0x00003FFF00003FFFULL) | ((w & 0x3FFF00003FFF0000ULL) >> 2);
  return (w & 0x000000000FFFFFFFULL) | ((w & 0x0FFFFFFF00000000ULL) >> 4);
}

/// Writes `v` as LEB128 at `p` and returns the byte after it. Stores
/// one byte for a value below 2^7, else eight bytes at `p` for a value
/// below 2^56 and ten for a larger one, of which the encoding is a
/// prefix: `p` needs room for that many bytes.
[[nodiscard, gnu::always_inline]] inline unsigned char* put_varint(
    unsigned char* p, std::uint64_t v) noexcept {
  if (v < 0x80) {  // one byte: almost every pc delta
    *p = static_cast<unsigned char>(v);
    return p + 1;
  }
  if (v < (std::uint64_t{1} << 56)) {
    const auto len = static_cast<unsigned>(std::bit_width(v) + 6) / 7;  // 2..8
    const std::uint64_t flags =
        kVarintFlags & ((std::uint64_t{1} << (8 * (len - 1))) - 1);
    const std::uint64_t w = spread7(v) | flags;
    std::memcpy(p, &w, sizeof w);
    return p + len;
  }
  // Nine or ten bytes: eight flagged groups, then bits 56..62 with bit 63
  // as the flag (a 10th byte follows exactly when bit 63 is set), then
  // bit 63.
  const std::uint64_t w =
      spread7(v & ((std::uint64_t{1} << 56) - 1)) | kVarintFlags;
  std::memcpy(p, &w, sizeof w);
  const std::uint64_t top = v >> 56;
  p[8] = static_cast<unsigned char>(top);
  p[9] = static_cast<unsigned char>(top >> 7);
  return p + 9 + (top >> 7);
}

/// The length of the LEB128 varint at `p`, 1 to 10 bytes, or 0 when no
/// reader accepts the bytes there: a varint is at most 10 bytes, and its
/// 10th byte may only carry the top bit of a 64-bit value. Reads the ten
/// bytes at `p`, the first eight as one word.
[[nodiscard, gnu::always_inline]] inline std::size_t varint_length(
    const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  const std::uint64_t stops = ~w & kVarintFlags;
  if (stops != 0) {
    return static_cast<std::size_t>(std::countr_zero(stops) / 8 + 1);
  }
  // Random 64-bit values split evenly between 9 and 10 bytes, so the two
  // lengths take one path.
  const std::size_t tenth = p[8] >> 7;  // 1 when a 10th byte follows
  const std::size_t junk = p[9] & 0xFE & (0 - tenth);
  return junk == 0 ? 9 + tenth : 0;
}

/// Reads the varint at p[pos], which varint_length accepted, and
/// advances `pos`. Reads the ten bytes at `pos` whatever the varint's
/// length, so the caller must have them; a 9- and a 10-byte value then
/// take the same path.
[[nodiscard, gnu::always_inline]] inline std::uint64_t get_varint(
    const unsigned char* p, std::size_t& pos) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p + pos, sizeof w);
  const std::uint64_t stops = ~w & kVarintFlags;
  if (stops != 0) {  // ends within the word: keep bytes up to the stop
    pos += static_cast<std::size_t>(std::countr_zero(stops) / 8 + 1);
    return pack7(w & (stops ^ (stops - 1)));
  }
  const std::uint64_t b8 = p[pos + 8];
  const std::uint64_t tenth = b8 >> 7;  // 1 when a 10th byte follows
  const std::uint64_t v = pack7(w) | (b8 & 0x7F) << 56 |
                          (p[pos + 9] & tenth) << 63;
  pos += 9 + tenth;
  return v;
}

// --- record codec ---------------------------------------------------------
//
// Per record: one presence byte (op class in the low nibble, taken bit,
// and has-mem/has-br/has-value bits — "absent" means the field is zero,
// which is exactly what canonical records hold for inapplicable fields),
// four raw bytes (mem_size, src1, src2, dst), then varints: zigzag pc
// delta vs the previous record; a branch's `addr` as a zigzag delta vs
// its own pc (has-br), any other record's as a zigzag delta vs the
// previous *memory* address (has-mem); and the raw value. A MicroOp
// holds one address, so a record sets at most one of the two address
// bits. Delta state resets per block, so blocks decode independently.

constexpr unsigned char kTakenBit = 0x10;
constexpr unsigned char kHasMemBit = 0x20;
constexpr unsigned char kHasBrBit = 0x40;
constexpr unsigned char kHasValueBit = 0x80;
constexpr std::uint8_t kMaxOpClass = static_cast<std::uint8_t>(OpClass::kNop);
/// The largest encoded record: five raw bytes and three 10-byte varints
/// (pc, one address, value). Every byte a record's decode reads, its
/// varints' ten-byte reads included, lies within this many bytes of the
/// record's start.
constexpr std::size_t kMaxRecordBytes = 5 + 3 * 10;

struct DeltaState {
  std::uint64_t prev_pc = 0;
  std::uint64_t prev_mem = 0;
};

static_assert(offsetof(MicroOp, op) == 24 &&
                  offsetof(MicroOp, mem_size) == 25 &&
                  offsetof(MicroOp, src1) == 26 &&
                  offsetof(MicroOp, src2) == 27 &&
                  offsetof(MicroOp, dst) == 28 &&
                  offsetof(MicroOp, taken) == 29 &&
                  offsetof(MicroOp, pad_) == 30,
              "the op class, the four raw bytes, taken and the pad are "
              "MicroOp's bytes 24..31, one word");

/// Decodes the record at p[pos], which the encoder wrote or a block
/// check accepted, into `out`, each field written in place, and advances
/// `pos`. Checks nothing, and reads up to kMaxRecordBytes bytes from the
/// record's start, past its end when it is shorter.
[[gnu::always_inline]] inline void decode_record(const unsigned char* p,
                                                 std::size_t& pos,
                                                 DeltaState& st,
                                                 MicroOp& out) noexcept {
  std::uint64_t raw;
  std::memcpy(&raw, p + pos, sizeof raw);
  // The op class, the four raw bytes and the taken bit in one store,
  // which zeroes the pad.
  const std::uint64_t fields =
      (raw & 0x000000FFFFFFFF0FULL) | (raw & kTakenBit) << 36;
  std::memcpy(reinterpret_cast<unsigned char*>(&out) + offsetof(MicroOp, op),
              &fields, sizeof fields);
  const auto b0 = static_cast<unsigned char>(raw);
  pos += 5;
  const Addr pc = st.prev_pc + zigzag_decode(get_varint(p, pos));
  out.pc = pc;
  st.prev_pc = pc;
  Addr addr = 0;
  if ((b0 & kHasMemBit) != 0) {
    addr = st.prev_mem + zigzag_decode(get_varint(p, pos));
    st.prev_mem = addr;
  } else if ((b0 & kHasBrBit) != 0) {
    addr = pc + zigzag_decode(get_varint(p, pos));
  }
  out.addr = addr;
  out.value = (b0 & kHasValueBit) != 0 ? get_varint(p, pos) : 0;
}

/// Where walk_records stopped.
struct RecordWalk {
  std::uint32_t records = 0;  ///< records stepped over
  std::size_t end = 0;        ///< byte after the last, once all are
};

/// Steps over the `count` records of the `n`-byte payload at `p`:
/// step(q, pos, i) takes record i at q[pos], advances `pos` past it, and
/// returns false to stop the walk there. A step may read kMaxRecordBytes
/// bytes from its record's start, past the record's end, so records are
/// stepped in place only while that many bytes remain, and the last ones
/// in a copy padded with 0x80: a byte that continues a varint and fails a
/// 10th byte's rule, so no varint ends in the padding, and a record that
/// runs past the payload (it ends in a varint) is undecodable, as a
/// bounds check would find. A step is called from both loops, so a step
/// lambda must be __attribute__((always_inline)) to be inlined into both
/// (the GNU spelling: [[gnu::always_inline]] there would apply to the
/// lambda's type).
template <class Step>
[[nodiscard, gnu::always_inline]] inline RecordWalk walk_records(
    const unsigned char* p, std::size_t n, std::uint32_t count, Step&& step) {
  RecordWalk w;
  std::size_t pos = 0;
  for (; w.records < count && n - pos >= kMaxRecordBytes; ++w.records) {
    if (!step(p, pos, w.records)) return w;
  }
  if (w.records == count) {  // any bytes left are not records'
    w.end = pos;
    return w;
  }
  // The loop stopped on the byte count: fewer than kMaxRecordBytes bytes
  // are left, and each record's reads stay within kMaxRecordBytes of its
  // start, which lies in the copied bytes.
  unsigned char tail[2 * kMaxRecordBytes];
  std::memset(tail, 0x80, sizeof tail);
  std::memcpy(tail, p + pos, n - pos);
  std::size_t at = 0;
  for (; w.records < count; ++w.records) {
    if (!step(tail, at, w.records)) return w;
  }
  w.end = pos + at;
  return w;
}

// --- block codec ----------------------------------------------------------

constexpr std::size_t kBlockGuardedHeaderBytes =
    sizeof(SamtBlockHeader) - sizeof(std::uint64_t);  // all but the guard

[[nodiscard]] std::uint64_t block_guard(const SamtBlockHeader& h,
                                        const unsigned char* payload,
                                        std::size_t payload_bytes) noexcept {
  std::uint64_t g = fnv1a_64(&h, kBlockGuardedHeaderBytes);
  return fnv1a_64(payload, payload_bytes, g);
}

/// Blocks whose guards are hashed together. A guard is one FNV-1a
/// multiply chain, each step waiting on the one before; four chains in
/// step keep the multiplier busy where one leaves it idle.
constexpr std::size_t kGuardLanes = 4;

/// The guards of blocks[0, k), k <= kGuardLanes, whose payloads are
/// payload_bytes[j] bytes (block_guard's values). The bytes every payload
/// has are hashed as four chains in step; each chain then finishes its
/// own payload alone. Blocks of a group differ in length by a few
/// percent, so little is left to finish.
void hash_guards(const unsigned char* const blocks[],
                 const std::size_t payload_bytes[], std::size_t k,
                 std::uint64_t guards[]) noexcept {
  static_assert(kGuardLanes == 4, "the loop below hashes four chains");
  if (k == 0) return;
  // A lane past k hashes block 0 again, into a chain that is not read.
  const unsigned char* p[kGuardLanes] = {};
  std::uint64_t g[kGuardLanes] = {};
  std::size_t shared = payload_bytes[0];
  for (std::size_t j = 0; j < kGuardLanes; ++j) {
    const std::size_t b = j < k ? j : 0;
    p[j] = blocks[b] + sizeof(SamtBlockHeader);
    g[j] = fnv1a_64(blocks[b], kBlockGuardedHeaderBytes);
    shared = std::min(shared, payload_bytes[b]);
  }
  std::uint64_t h0 = g[0];
  std::uint64_t h1 = g[1];
  std::uint64_t h2 = g[2];
  std::uint64_t h3 = g[3];
  for (std::size_t i = 0; i < shared; ++i) {
    h0 = (h0 ^ p[0][i]) * kFnvPrime;
    h1 = (h1 ^ p[1][i]) * kFnvPrime;
    h2 = (h2 ^ p[2][i]) * kFnvPrime;
    h3 = (h3 ^ p[3][i]) * kFnvPrime;
  }
  const std::uint64_t h[kGuardLanes] = {h0, h1, h2, h3};
  for (std::size_t j = 0; j < k; ++j) {
    guards[j] = fnv1a_64(p[j] + shared, payload_bytes[j] - shared, h[j]);
  }
}

/// Encodes `n` records starting at global record `first_record` as one
/// block (header, then payload) at `out`, which has room for a header and
/// kMaxRecordBytes a record, and returns the block's bytes. The guard is
/// left zero: encode_group hashes it. A record's fields are read into
/// locals before any byte of it is written: the cursor is an unsigned
/// char*, whose stores the compiler must assume alias the records.
[[nodiscard]] std::size_t encode_block(const MicroOp* ops, std::uint32_t n,
                                       std::uint64_t first_record,
                                       unsigned char* out) noexcept {
  unsigned char* p = out + sizeof(SamtBlockHeader);
  DeltaState st;
  for (std::uint32_t i = 0; i < n; ++i) {
    const MicroOp& op = ops[i];
    const Addr pc = op.pc;
    const Addr addr = op.addr;
    const std::uint64_t value = op.value;
    // The op class, the four raw bytes and the taken bit: MicroOp's
    // bytes 24..29.
    std::uint64_t raw;
    std::memcpy(&raw, reinterpret_cast<const unsigned char*>(&op) +
                          offsetof(MicroOp, op),
                sizeof raw);
    const bool is_branch =
        static_cast<OpClass>(raw & 0xFF) == OpClass::kBranch;
    std::uint64_t b0 = raw & 0x0F;
    if ((raw >> 40 & 0xFF) != 0) b0 |= kTakenBit;
    if (addr != 0) b0 |= is_branch ? kHasBrBit : kHasMemBit;
    if (value != 0) b0 |= kHasValueBit;
    // The presence byte and the four raw bytes in one store; the three
    // bytes past them are the pc varint's to overwrite.
    const std::uint64_t head = (raw & 0x000000FFFFFFFF00ULL) | b0;
    std::memcpy(p, &head, sizeof head);
    p = put_varint(p + 5, zigzag_encode(pc - st.prev_pc));
    st.prev_pc = pc;
    if (addr != 0) {
      if (is_branch) {
        p = put_varint(p, zigzag_encode(addr - pc));
      } else {
        p = put_varint(p, zigzag_encode(addr - st.prev_mem));
        st.prev_mem = addr;
      }
    }
    if (value != 0) p = put_varint(p, value);
  }
  SamtBlockHeader h;
  h.magic = kBlockMagic;
  h.record_count = n;
  h.first_record = first_record;
  h.payload_bytes =
      static_cast<std::uint32_t>(p - out - sizeof(SamtBlockHeader));
  h.reserved = 0;
  h.guard = 0;
  std::memcpy(out, &h, sizeof h);
  return sizeof h + h.payload_bytes;
}

/// Encodes records [first, first + count), at most kGuardLanes blocks of
/// `block_records` (the last may be short), as consecutive blocks at
/// `out`, which has room for max_encoded_bytes(count, block_records),
/// and hashes their guards together (hash_guards). `records(k)` returns
/// the next k records of the trace. Returns the bytes written.
template <class Records>
std::size_t encode_group(std::uint64_t first, std::uint64_t count,
                         std::uint32_t block_records, unsigned char* out,
                         Records&& records) {
  unsigned char* blocks[kGuardLanes] = {};
  std::size_t payload[kGuardLanes] = {};
  std::size_t k = 0;
  std::size_t bytes = 0;
  for (std::uint64_t done = 0; done < count; done += block_records, ++k) {
    assert(k < kGuardLanes);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(block_records, count - done));
    blocks[k] = out + bytes;
    const std::size_t block = encode_block(records(n), n, first + done,
                                           blocks[k]);
    payload[k] = block - sizeof(SamtBlockHeader);
    bytes += block;
  }
  std::uint64_t guards[kGuardLanes] = {};
  hash_guards(blocks, payload, k, guards);
  for (std::size_t j = 0; j < k; ++j) {
    std::memcpy(blocks[j] + offsetof(SamtBlockHeader, guard), &guards[j],
                sizeof guards[j]);
  }
  return bytes;
}

// --- block checks ---------------------------------------------------------
//
// Readers judge a block on the bytes the file holds, without decoding a
// record: its header against the index, its guard, then every record's
// decodability and record domain, straight from the raw bytes.

/// The low bits of a payload's delta state. Natural alignment depends
/// only on an address's low three bits, and zigzag_decode's low six bits
/// depend only on the low seven bits of its input, which a varint's
/// first byte holds: so these track the low six bits of the previous pc
/// and memory address exactly, from first bytes alone.
struct LowDeltas {
  std::uint64_t pc = 0;
  std::uint64_t mem = 0;
};

/// A payload's first record outside the record domain and the rule it
/// breaks (record_fields_violation); `rule` is nullptr when there is none.
struct FirstOutside {
  std::uint32_t record = 0;
  const char* rule = nullptr;
};

/// Judges record `i` at p[pos] on its raw bytes and advances `pos` past
/// it, reading no further than kMaxRecordBytes bytes from `pos` (a
/// walk_records step). False when no record decodes there: an op class
/// past kNop, both address bits (a MicroOp holds one address), or a
/// malformed varint. While `first` names no record outside the domain
/// yet, checks this one against it.
[[nodiscard, gnu::always_inline]] inline bool judge_record(
    const unsigned char* p, std::size_t& pos, std::uint32_t i, LowDeltas& st,
    FirstOutside& first) noexcept {
  const unsigned char* fields = p + pos;
  const unsigned char b0 = fields[0];
  if ((b0 & 0x0F) > kMaxOpClass) return false;
  if ((b0 & kHasMemBit) != 0 && (b0 & kHasBrBit) != 0) return false;
  pos += 5;
  std::size_t len = varint_length(p + pos);
  if (len == 0) return false;
  st.pc += zigzag_decode(p[pos] & 0x7Fu);
  pos += len;
  std::uint64_t addr = 0;
  if ((b0 & (kHasMemBit | kHasBrBit)) != 0) {
    len = varint_length(p + pos);
    if (len == 0) return false;
    const std::uint64_t delta = zigzag_decode(p[pos] & 0x7Fu);
    if ((b0 & kHasMemBit) != 0) {
      st.mem += delta;
      addr = st.mem;
    } else {
      addr = st.pc + delta;
    }
    pos += len;
  }
  if ((b0 & kHasValueBit) != 0) {
    len = varint_length(p + pos);
    if (len == 0) return false;
    pos += len;
  }
  if (first.rule == nullptr) {
    first.rule = record_fields_violation(b0 & 0x0F, fields[1], fields[2],
                                         fields[3], fields[4], addr);
    first.record = i;
  }
  return true;
}

/// The first record outside the record domain, as an open throws it and
/// a damage walk notes it.
struct DomainViolation {
  std::uint64_t record = 0;
  std::uint64_t block = 0;
  std::uint64_t offset = 0;  ///< file offset of the record's block
  const char* rule = nullptr;  ///< nullptr: no violation

  [[nodiscard]] bool found() const noexcept { return rule != nullptr; }
  /// The verdict after the path: "block B at offset O: record R: rule".
  [[nodiscard]] std::string verdict() const {
    return "block " + std::to_string(block) + " at offset " +
           std::to_string(offset) + ": record " + std::to_string(record) +
           ": " + rule;
  }
};

/// What check_blocks found in one block: the damage of the first check
/// it fails, with the verdict an open states after the path, or else its
/// first record outside the record domain, if any.
struct BlockVerdict {
  TraceDamage damage = TraceDamage::kNone;
  std::string note;
  DomainViolation outside;
};

/// Judges block `b` at `raw`, read for index entry `e`, whose bytes hash
/// to `guard`: the header against the index, then the guard, then each
/// record on its raw bytes (judge_record).
[[nodiscard]] BlockVerdict judge_block(const unsigned char* raw,
                                       const SamtIndexEntry& e,
                                       std::uint64_t b, std::uint64_t guard) {
  BlockVerdict v;
  const auto damaged = [&](const std::string& what) {
    v.damage = TraceDamage::kInteriorCorrupt;
    v.note = "block " + std::to_string(b) + " at offset " +
             std::to_string(e.file_offset) + ": " + what;
    return v;
  };
  SamtBlockHeader h{};
  std::memcpy(&h, raw, sizeof h);
  if (h.magic != kBlockMagic || h.record_count != e.record_count ||
      h.first_record != e.first_record ||
      h.payload_bytes != e.payload_bytes || h.guard != e.guard) {
    return damaged("block header disagrees with the index");
  }
  if (guard != h.guard) return damaged("guard mismatch (corrupt payload)");
  LowDeltas st;
  FirstOutside first;
  const RecordWalk w = walk_records(
      raw + sizeof h, h.payload_bytes, h.record_count,
      [&](const unsigned char* q, std::size_t& pos,
          std::uint32_t i) __attribute__((always_inline)) {
        return judge_record(q, pos, i, st, first);
      });
  if (w.records != h.record_count) {
    return damaged("undecodable record " + std::to_string(w.records));
  }
  if (w.end != h.payload_bytes) return damaged("trailing payload bytes");
  if (first.rule != nullptr) {
    v.outside = {e.first_record + first.record, b, e.file_offset, first.rule};
  }
  return v;
}

[[noreturn]] void throw_block_damage(const std::string& path, std::uint64_t b,
                                     const SamtIndexEntry& e,
                                     const BlockVerdict& v) {
  throw TraceCorruptError(path + ": " + v.note, v.damage, b, e.file_offset);
}

/// Reads the blocks of `index` through `fd` and judges each one
/// (judge_block). Blocks go in index order, in groups of up to
/// kGuardLanes: each group, whose bytes are contiguous in the file, is
/// read with one pread to place(first block, bytes), an armed bit-flip
/// fault is applied to the bytes read, and the group's guards are hashed
/// together (hash_guards). Then visit(b, block bytes, verdict) is called
/// for each block of the group in order; the bytes are nullptr for an
/// unreadable block. A visit that throws ends the walk, so an open that
/// throws at the first damage reports the lowest damaged block.
template <class Place, class Visit>
void check_blocks(int fd, const std::vector<SamtIndexEntry>& index,
                  const IoFault& fault, Place&& place, Visit&& visit) {
  for (std::size_t g = 0; g < index.size(); g += kGuardLanes) {
    const std::size_t k = std::min(kGuardLanes, index.size() - g);
    const std::uint64_t start = index[g].file_offset;
    const SamtIndexEntry& last = index[g + k - 1];
    const auto bytes = static_cast<std::size_t>(
        last.file_offset + sizeof(SamtBlockHeader) + last.payload_bytes -
        start);
    unsigned char* raw = place(g, bytes);
    const std::size_t got = read_upto(fd, start, raw, bytes);
    const unsigned char* blocks[kGuardLanes] = {};
    std::size_t payload[kGuardLanes] = {};
    std::size_t readable = 0;
    for (; readable < k; ++readable) {
      const SamtIndexEntry& e = index[g + readable];
      const auto at = static_cast<std::size_t>(e.file_offset - start);
      if (got < at || got - at < sizeof(SamtBlockHeader) + e.payload_bytes) {
        break;
      }
      if (fault.kind == IoFault::Kind::kBitFlipBlock &&
          fault.param == g + readable) {
        raw[at + (e.payload_bytes != 0 ? sizeof(SamtBlockHeader)
                                       : sizeof(SamtBlockHeader) - 1)] ^= 0x01;
      }
      blocks[readable] = raw + at;
      payload[readable] = e.payload_bytes;
    }
    std::uint64_t guards[kGuardLanes] = {};
    hash_guards(blocks, payload, readable, guards);
    for (std::size_t j = 0; j < k; ++j) {
      if (j < readable) {
        visit(g + j, blocks[j],
              judge_block(blocks[j], index[g + j], g + j, guards[j]));
      } else {
        // A failing pread of bytes the file size says exist.
        BlockVerdict v;
        v.damage = TraceDamage::kTornTail;
        v.note = "block " + std::to_string(g + j) + " unreadable";
        visit(g + j, nullptr, v);
      }
    }
  }
}

/// A check_blocks placement that reads every group into `buffer`.
[[nodiscard]] auto into(std::vector<unsigned char>& buffer) {
  return [&buffer](std::size_t, std::size_t bytes) {
    buffer.resize(bytes);
    return buffer.data();
  };
}

// --- layout (header + footer + index) validation --------------------------

/// Everything read at open time, plus a damage classification instead of
/// an exception so trace_health() can report rather than throw.
struct V2Layout {
  SamtHeader header{};
  std::vector<SamtIndexEntry> index;
  TraceDamage damage = TraceDamage::kNone;
  std::uint64_t bad_offset = 0;
  std::string note;
};

/// Validates the header, footer and index of the file open as `fd`.
/// Throws read_header's TraceFormatError for files that are not SAMT v2
/// at all; classifies damage (torn tail / bad index) into the returned
/// struct otherwise. `cut` simulates a short read: the last `cut` bytes
/// are invisible.
[[nodiscard]] V2Layout load_v2_layout(const std::string& path, int fd,
                                      std::uint64_t cut) {
  std::uint64_t bytes = file_size_of(path, fd);
  bytes = bytes > cut ? bytes - cut : 0;

  V2Layout L;
  L.header = read_header(path, fd, bytes);

  auto damaged = [&](TraceDamage d, std::uint64_t off, std::string note) {
    L.damage = d;
    L.bad_offset = off;
    L.note = std::move(note);
    return L;
  };

  // Footer: the last thing a successful finish() writes, so a file that
  // lacks one is a torn tail by definition.
  constexpr std::uint64_t kMinIndexBytes = 16;  // magic+count+guard, 0 blocks
  if (bytes < sizeof(SamtHeader) + kMinIndexBytes + sizeof(SamtFooter)) {
    return damaged(TraceDamage::kTornTail, bytes,
                   "file too short for an index and footer (torn tail)");
  }
  SamtFooter footer{};
  // A failing pread: no test reaches this or "unreadable index region".
  if (!read_at(fd, bytes - sizeof footer, &footer, sizeof footer)) {
    return damaged(TraceDamage::kTornTail, bytes - sizeof footer,
                   "unreadable footer (torn tail)");
  }
  if (std::memcmp(footer.magic, kFooterMagic, sizeof kFooterMagic) != 0) {
    return damaged(TraceDamage::kTornTail, bytes - sizeof footer,
                   "missing footer magic (torn tail)");
  }
  if (footer.guard !=
      fnv1a_64(&footer, sizeof footer - sizeof footer.guard)) {
    return damaged(TraceDamage::kTornTail, bytes - sizeof footer,
                   "footer guard mismatch (torn tail)");
  }

  // Index region bounds, guard and header binding.
  const std::uint64_t index_end = bytes - sizeof footer;
  if (footer.index_offset < sizeof(SamtHeader) ||
      footer.index_offset > index_end ||
      footer.index_bytes != index_end - footer.index_offset ||
      footer.index_bytes < kMinIndexBytes) {
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "footer index bounds are inconsistent");
  }
  std::vector<unsigned char> region(
      static_cast<std::size_t>(footer.index_bytes));
  if (!read_at(fd, footer.index_offset, region.data(), region.size())) {
    // A failing pread (see "unreadable footer").
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "unreadable index region");
  }
  std::uint32_t imagic = 0;
  std::uint32_t block_count = 0;
  std::memcpy(&imagic, region.data(), 4);
  std::memcpy(&block_count, region.data() + 4, 4);
  std::uint64_t iguard = 0;
  std::memcpy(&iguard, region.data() + region.size() - 8, 8);
  if (imagic != kIndexMagic ||
      footer.index_bytes !=
          kMinIndexBytes + std::uint64_t{block_count} * sizeof(SamtIndexEntry)) {
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "index header is inconsistent");
  }
  if (iguard != fnv1a_64(region.data(), region.size() - 8)) {
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "index guard mismatch");
  }
  if (L.header.checksum != fnv1a_64(region.data(), region.size())) {
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "header checksum does not bind this index");
  }

  // Entries must tile [header, index) exactly, with contiguous record
  // ranges summing to the header count.
  L.index.resize(block_count);
  if (block_count != 0) {
    std::memcpy(L.index.data(), region.data() + 8,
                std::size_t{block_count} * sizeof(SamtIndexEntry));
  }
  std::uint64_t expect_offset = sizeof(SamtHeader);
  std::uint64_t expect_record = 0;
  for (std::uint32_t i = 0; i < block_count; ++i) {
    const SamtIndexEntry& e = L.index[i];
    const std::uint64_t room = footer.index_offset - expect_offset;
    if (e.file_offset != expect_offset || e.first_record != expect_record ||
        e.record_count == 0 || room < sizeof(SamtBlockHeader) ||
        e.payload_bytes > room - sizeof(SamtBlockHeader)) {
      return damaged(TraceDamage::kBadIndex, footer.index_offset,
                     "index entry " + std::to_string(i) +
                         " is inconsistent");
    }
    expect_offset += sizeof(SamtBlockHeader) + e.payload_bytes;
    expect_record += e.record_count;
  }
  if (expect_offset != footer.index_offset ||
      expect_record != L.header.count) {
    return damaged(TraceDamage::kBadIndex, footer.index_offset,
                   "index does not cover the file / header count");
  }
  return L;
}

}  // namespace

// --------------------------------------------------------- TraceWriterV2 --

TraceWriterV2::TraceWriterV2(const std::string& path, const std::string& name,
                             std::uint64_t seed, std::uint32_t block_records,
                             Mode mode)
    : path_(path),
      tmp_path_(tmp_path_for(path)),
      block_records_(block_records != 0 ? block_records
                                        : kDefaultBlockRecords) {
  std::memcpy(header_.magic, kSamtMagic, sizeof kSamtMagic);
  header_.version = kSamtVersion2;
  header_.record_bytes = kSamtRecordBytes;
  header_.seed = seed;
  std::memcpy(header_.name, name.data(),
              std::min(name.size(), sizeof header_.name - 1));

  if (mode == Mode::kResume) {
    // Keep the intact leading blocks of an existing tmp: scan forward
    // verifying every guard, truncate at the first break, append there.
    std::FILE* f = std::fopen(tmp_path_.c_str(), "r+b");
    if (f != nullptr) {
      const int fd = ::fileno(f);
      SamtHeader h{};
      struct stat st{};
      const std::uint64_t bytes =
          ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
      bool usable = bytes >= sizeof h && read_at(fd, 0, &h, sizeof h) &&
                    std::memcmp(h.magic, kSamtMagic, sizeof kSamtMagic) == 0 &&
                    h.version == kSamtVersion2 &&
                    h.record_bytes == kSamtRecordBytes;
      if (usable) {
        std::uint64_t off = sizeof h;
        std::vector<unsigned char> raw;
        while (off + sizeof(SamtBlockHeader) <= bytes) {
          SamtBlockHeader bh{};
          if (!read_at(fd, off, &bh, sizeof bh) || bh.magic != kBlockMagic ||
              bh.first_record != durable_records_ || bh.record_count == 0 ||
              bh.payload_bytes > bytes - off - sizeof bh) {
            break;
          }
          raw.resize(bh.payload_bytes);
          if (!read_at(fd, off + sizeof bh, raw.data(), raw.size()) ||
              block_guard(bh, raw.data(), raw.size()) != bh.guard) {
            break;
          }
          index_.push_back(SamtIndexEntry{off, bh.first_record,
                                          bh.record_count, bh.payload_bytes,
                                          bh.guard});
          durable_records_ += bh.record_count;
          off += sizeof bh + bh.payload_bytes;
        }
        usable = ::ftruncate(fd, static_cast<off_t>(off)) == 0 &&
                 std::fseek(f, static_cast<long>(off), SEEK_SET) == 0;
        if (usable) {
          file_ = f;
          write_offset_ = off;
          header_.count = durable_records_;
          return;
        }
      }
      std::fclose(f);
      index_.clear();
      durable_records_ = 0;
    }
  }

  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    fail(path, std::string("cannot open for writing: ") + std::strerror(errno));
  }
  if (std::fwrite(&header_, sizeof header_, 1, file_) != 1) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_path_.c_str());
    fail(path, "cannot write header");
  }
  write_offset_ = sizeof header_;
}

TraceWriterV2::~TraceWriterV2() {
  // An unfinished tmp is deliberately KEPT: its flushed blocks are
  // intact, and Mode::kResume picks them back up.
  if (file_ != nullptr) std::fclose(file_);
}

std::uint64_t TraceWriterV2::durable_records() const noexcept {
  return durable_records_;
}

void TraceWriterV2::append(const MicroOp& op) {
  append(TraceView{&op, 1});
}

void TraceWriterV2::append(TraceView ops) {
  if (file_ == nullptr) fail(path_, "append after finish()");
  const MicroOp* p = ops.data();
  std::size_t n = ops.size();
  if (!pending_.empty()) {
    const std::size_t take = std::min(n, block_records_ - pending_.size());
    pending_.insert(pending_.end(), p, p + take);
    p += take;
    n -= take;
    if (pending_.size() == block_records_) flush_block();
  }
  const std::size_t whole = n - n % block_records_;
  if (whole != 0) write_blocks(p, whole);
  pending_.insert(pending_.end(), p + whole, p + n);
}

void TraceWriterV2::flush_block() {
  if (pending_.empty()) return;
  write_blocks(pending_.data(), pending_.size());
  pending_.clear();
}

void TraceWriterV2::write_blocks(const MicroOp* ops, std::size_t count) {
  // Groups of up to kGuardLanes blocks are encoded into one buffer, their
  // guards hashed together (encode_group), and written with one fwrite.
  // The buffer is left uninitialized, so no byte of it is touched that an
  // encode does not write.
  const std::size_t group =
      std::min(count, kGuardLanes * std::size_t{block_records_});
  const std::unique_ptr<unsigned char[]> buffer(
      new unsigned char[max_encoded_bytes(group, block_records_)]);
  for (std::size_t first = 0; first < count; first += group) {
    const MicroOp* next = ops + first;
    const std::size_t bytes = encode_group(
        durable_records_, std::min(group, count - first), block_records_,
        buffer.get(),
        [&next](std::size_t k) { return std::exchange(next, next + k); });
    write_indexed(buffer.get(), bytes);
  }
}

void TraceWriterV2::append_blocks(std::span<const unsigned char> blocks) {
  if (file_ == nullptr) fail(path_, "append after finish()");
  // The whole span is checked before any of it is written.
  std::uint64_t next = durable_records_;
  for (std::size_t at = 0; at < blocks.size();) {
    SamtBlockHeader h{};
    if (blocks.size() - at >= sizeof h) {
      std::memcpy(&h, blocks.data() + at, sizeof h);
    }
    if (!pending_.empty() || h.magic != kBlockMagic ||
        h.first_record != next ||
        h.payload_bytes > blocks.size() - at - sizeof h) {
      fail(path_, "appended blocks do not continue the trace");
    }
    next += h.record_count;
    at += sizeof h + h.payload_bytes;
  }
  write_indexed(blocks.data(), blocks.size());
}

void TraceWriterV2::write_indexed(const unsigned char* blocks,
                                  std::size_t bytes) {
  if (std::fwrite(blocks, 1, bytes, file_) != bytes ||
      std::fflush(file_) != 0) {
    fail(path_, "short write");
  }
  for (std::size_t at = 0; at < bytes;) {
    SamtBlockHeader h{};
    std::memcpy(&h, blocks + at, sizeof h);
    index_.push_back(SamtIndexEntry{write_offset_ + at, h.first_record,
                                    h.record_count, h.payload_bytes,
                                    h.guard});
    durable_records_ += h.record_count;
    at += sizeof h + h.payload_bytes;
  }
  write_offset_ += bytes;
}

void TraceWriterV2::finish() {
  if (file_ == nullptr) fail(path_, "finish() called twice");
  const IoFault fault = take_io_fault(path_);
  if (fault.kind == IoFault::Kind::kTornImport) {
    // Die mid-block, as a SIGKILL would: half a block header lands in the
    // tmp, no index, no rename. The tmp survives for kResume.
    flush_block();
    const SamtBlockHeader torn{};
    std::fwrite(&torn, 1, sizeof torn / 2, file_);
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
    fail(path_, "injected import fault: killed mid-block (torn tmp kept)");
  }
  if (fault.kind == IoFault::Kind::kEnospcOnImport) {
    flush_block();
    std::fclose(file_);
    file_ = nullptr;
    fail(path_, "injected import fault: no space left on device (tmp kept)");
  }
  flush_block();

  // Index region: magic + count + entries + guard; the header checksum
  // binds the whole region, footer guard covers the footer.
  std::vector<unsigned char> region(
      16 + index_.size() * sizeof(SamtIndexEntry));
  const std::uint32_t block_count = static_cast<std::uint32_t>(index_.size());
  std::memcpy(region.data(), &kIndexMagic, 4);
  std::memcpy(region.data() + 4, &block_count, 4);
  if (!index_.empty()) {
    std::memcpy(region.data() + 8, index_.data(),
                index_.size() * sizeof(SamtIndexEntry));
  }
  const std::uint64_t iguard = fnv1a_64(region.data(), region.size() - 8);
  std::memcpy(region.data() + region.size() - 8, &iguard, 8);

  SamtFooter footer{};
  std::memcpy(footer.magic, kFooterMagic, sizeof kFooterMagic);
  footer.index_offset = write_offset_;
  footer.index_bytes = region.size();
  footer.guard = fnv1a_64(&footer, sizeof footer - sizeof footer.guard);

  header_.count = durable_records_;
  header_.checksum = fnv1a_64(region.data(), region.size());

  const bool ok =
      std::fwrite(region.data(), 1, region.size(), file_) == region.size() &&
      std::fwrite(&footer, sizeof footer, 1, file_) == 1 &&
      std::fseek(file_, 0, SEEK_SET) == 0 &&
      std::fwrite(&header_, sizeof header_, 1, file_) == 1 &&
      std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!ok || !closed ||
      std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    fail(path_, "cannot finalize trace (tmp kept)");
  }
  // Best-effort: a failed directory sync cannot un-publish the file, so
  // it is not reported.
  (void)fsync_parent_dir(path_);
}

void write_samt_v2(const std::string& path, TraceView ops,
                   const std::string& name, std::uint64_t seed,
                   std::uint32_t block_records) {
  TraceWriterV2 w(path, name, seed, block_records);
  w.append(ops);
  w.finish();
}

// --------------------------------------------------------- TraceV2Reader --

TraceV2Reader::TraceV2Reader(const std::string& path)
    : path_(path),
      fault_(take_io_fault(path)),
      file_(open_file(path, O_RDONLY)) {
  V2Layout L = load_v2_layout(path_, file_.get(), short_read_cut(fault_));
  if (L.damage != TraceDamage::kNone) {
    throw TraceCorruptError(path_ + ": " + L.note, L.damage,
                            TraceCorruptError::kNoBlock, L.bad_offset);
  }
  header_ = L.header;
  index_ = std::move(L.index);
}

std::string TraceV2Reader::name() const { return header_name(header_); }

std::uint32_t TraceV2Reader::max_block_records() const noexcept {
  std::uint32_t most = 0;
  for (const SamtIndexEntry& e : index_) most = std::max(most, e.record_count);
  return most;
}

Trace TraceV2Reader::read_all() const {
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  std::vector<unsigned char> group;
  check_blocks(file_.get(), index_, fault_, into(group),
               [&](std::size_t b, const unsigned char* block,
                   const BlockVerdict& v) {
                 if (v.damage != TraceDamage::kNone) {
                   throw_block_damage(path_, b, index_[b], v);
                 }
                 // Grown per verified block: a block's claimed count
                 // allocates nothing until its records decode.
                 t.ops.resize(t.ops.size() + index_[b].record_count);
                 (void)decode_resident_block(block, t.ops.data(),
                                             ~std::uint64_t{0});
               });
  return t;
}

std::vector<unsigned char> TraceV2Reader::read_blocks_in_domain() const {
  // The index tiles [header, index) exactly (load_v2_layout), so each
  // block lands at its file offset less the header.
  const std::uint64_t end =
      index_.empty() ? sizeof(SamtHeader)
                     : index_.back().file_offset + sizeof(SamtBlockHeader) +
                           index_.back().payload_bytes;
  std::vector<unsigned char> blocks(
      static_cast<std::size_t>(end - sizeof(SamtHeader)));
  DomainViolation first;
  check_blocks(
      file_.get(), index_, fault_,
      [&](std::size_t b, std::size_t) {
        return blocks.data() + (index_[b].file_offset - sizeof(SamtHeader));
      },
      [&](std::size_t b, const unsigned char*, const BlockVerdict& v) {
        if (v.damage != TraceDamage::kNone) {
          throw_block_damage(path_, b, index_[b], v);
        }
        if (!first.found()) first = v.outside;
      });
  if (first.found()) {
    throw TraceCorruptError(path_ + ": " + first.verdict(),
                            TraceDamage::kInteriorCorrupt, first.block,
                            first.offset);
  }
  return blocks;
}

// ---------------------------------------------------------- trace_health --

TraceHealth trace_health(const std::string& path) {
  const IoFault fault = take_io_fault(path);
  const std::uint64_t cut = short_read_cut(fault);

  const FileHandle f = open_file(path, O_RDONLY);
  const V2Layout L = load_v2_layout(path, f.get(), cut);
  TraceHealth h;
  h.version = L.header.version;
  h.record_count = L.header.count;
  if (L.damage != TraceDamage::kNone) {
    h.damage = L.damage;
    h.first_bad_offset = L.bad_offset;
    h.note = L.note;
    return h;
  }
  std::vector<unsigned char> group;
  DomainViolation first_outside;
  h.blocks.reserve(L.index.size());
  check_blocks(f.get(), L.index, fault, into(group),
               [&](std::size_t b, const unsigned char*,
                   const BlockVerdict& v) {
                 const SamtIndexEntry& e = L.index[b];
                 const bool ok =
                     v.damage == TraceDamage::kNone && !v.outside.found();
                 if (v.damage != TraceDamage::kNone &&
                     h.damage == TraceDamage::kNone) {
                   // As the open would throw it: block damage wins over
                   // the domain.
                   h.damage = v.damage;
                   h.first_bad_offset = e.file_offset;
                   h.note = v.note;
                 }
                 if (!first_outside.found()) first_outside = v.outside;
                 if (!ok) ++h.bad_blocks;
                 h.blocks.push_back(BlockHealth{e.file_offset, e.first_record,
                                                e.record_count, ok});
               });
  if (h.damage == TraceDamage::kNone && first_outside.found()) {
    h.damage = TraceDamage::kInteriorCorrupt;
    h.first_bad_offset = first_outside.offset;
    h.note = first_outside.verdict();
  }
  return h;
}

// ------------------------------------------------------- resident blocks --

std::size_t max_encoded_bytes(std::uint64_t n, std::uint32_t block_records) {
  // Every block holds a record, so no block costs more than its header
  // once per record.
  if (n > SIZE_MAX / (sizeof(SamtBlockHeader) + kMaxRecordBytes)) {
    throw std::length_error("trace of " + std::to_string(n) +
                            " records exceeds the address space");
  }
  const std::uint64_t blocks = n / block_records + (n % block_records != 0);
  return static_cast<std::size_t>(blocks * sizeof(SamtBlockHeader) +
                                  n * kMaxRecordBytes);
}

std::size_t encode_blocks(
    std::uint64_t n, std::uint32_t block_records, unsigned char* out,
    const std::function<void(MicroOp*, std::size_t)>& fill) {
  std::vector<MicroOp> records(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, block_records)));
  const std::uint64_t group = kGuardLanes * std::uint64_t{block_records};
  std::size_t bytes = 0;
  for (std::uint64_t first = 0; first < n; first += group) {
    bytes += encode_group(first, std::min(group, n - first), block_records,
                          out + bytes, [&](std::size_t k) {
                            fill(records.data(), k);
                            return records.data();
                          });
  }
  return bytes;
}

SamtBlockHeader decode_resident_block(const unsigned char* block,
                                      MicroOp* ring,
                                      std::uint64_t mask) noexcept {
  SamtBlockHeader h{};
  std::memcpy(&h, block, sizeof h);
  DeltaState st;
  const std::uint64_t first = h.first_record;
  [[maybe_unused]] const RecordWalk w = walk_records(
      block + sizeof h, h.payload_bytes, h.record_count,
      [&](const unsigned char* q, std::size_t& pos,
          std::uint32_t i) __attribute__((always_inline)) {
        decode_record(q, pos, st, ring[(first + i) & mask]);
        return true;
      });
  assert(w.end == h.payload_bytes);
  return h;
}

// ----------------------------------------------------------- text import --

namespace {

[[nodiscard]] bool parse_op_class(const std::string& tok, OpClass& out) {
  for (const OpClass c :
       {OpClass::kIntAlu, OpClass::kIntMul, OpClass::kIntDiv, OpClass::kFpAlu,
        OpClass::kFpMul, OpClass::kFpDiv, OpClass::kLoad, OpClass::kStore,
        OpClass::kBranch, OpClass::kNop}) {
    if (tok == op_class_name(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

/// Parses a non-negative integer (decimal, or hex with 0x prefix),
/// rejecting trailing junk.
[[nodiscard]] bool parse_number(const std::string& tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(tok.c_str(), &end, 0);
  return errno == 0 && end == tok.c_str() + tok.size();
}

/// The producing op's destination register, provided it is still the
/// youngest writer of that register at `ops.size()` (otherwise the
/// dependency is unrepresentable through rename and is dropped).
[[nodiscard]] RegId dep_register(const std::vector<MicroOp>& ops,
                                 std::uint64_t distance) {
  if (distance == 0 || distance > ops.size()) return kNoReg;
  const std::size_t producer = ops.size() - static_cast<std::size_t>(distance);
  const RegId reg = ops[producer].dst;
  if (reg == kNoReg) return kNoReg;
  for (std::size_t i = producer + 1; i < ops.size(); ++i) {
    if (ops[i].dst == reg) return kNoReg;
  }
  return reg;
}

}  // namespace

Trace import_text_trace_from_string(const std::string& text,
                                    const std::string& origin) {
  Trace t;
  t.name = origin;
  t.seed = 0;
  SparseMemory oracle;  // program-order stores, read back for load values
  Addr pc = 0x00400000;
  std::uint32_t next_int_dst = 0;
  std::uint32_t next_fp_dst = 0;
  std::uint64_t store_counter = 0;

  std::istringstream lines(text);
  std::string line;
  std::uint64_t lineno = 0;
  auto bad = [&](const std::string& what) -> TraceFormatError {
    return TraceFormatError(origin + ":" + std::to_string(lineno) + ": " +
                            what);
  };

  while (std::getline(lines, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string f; fields >> f;) tok.push_back(std::move(f));
    if (tok.empty()) continue;

    OpClass cls{};
    if (!parse_op_class(tok[0], cls)) {
      throw bad("unknown op class '" + tok[0] + "'");
    }

    MicroOp op;
    op.op = cls;
    op.pc = pc;

    // Positional fields after the class: addr, size, dep1, dep2 (for
    // branches the addr column is the target and the size column the
    // taken flag; compute classes start at dep1).
    std::size_t f = 1;
    auto number_at = [&](std::size_t idx, const char* what) {
      std::uint64_t v = 0;
      if (idx >= tok.size() || !parse_number(tok[idx], v)) {
        throw bad(std::string("expected ") + what + " for '" + tok[0] + "'");
      }
      return v;
    };

    if (is_mem(cls)) {
      op.addr = number_at(f++, "an address");
      // A size past one byte is as far outside the record domain as
      // 0xFF, which the domain check below rejects.
      op.mem_size = static_cast<std::uint8_t>(
          std::min<std::uint64_t>(number_at(f++, "an access size"), 0xFF));
    } else if (cls == OpClass::kBranch) {
      if (f < tok.size()) {
        const std::uint64_t taken = number_at(f++, "a taken flag (0/1)");
        if (taken > 1) throw bad("taken flag must be 0 or 1");
        op.taken = taken != 0;
      }
      if (f < tok.size()) {
        op.addr = number_at(f++, "a branch target");
      } else {
        // Synthesized control flow: taken branches close a short backward
        // loop, not-taken ones skip ahead (both deterministic).
        op.addr = op.taken && pc >= 64 ? pc - 64 : pc + 8;
      }
    }

    // Dependency distances (dynamic instructions back to the producer).
    RegId deps[2] = {kNoReg, kNoReg};
    for (int d = 0; d < 2 && f < tok.size(); ++d) {
      deps[d] = dep_register(t.ops, number_at(f++, "a dependency distance"));
    }
    if (f < tok.size()) throw bad("trailing fields after '" + tok[f] + "'");
    op.src1 = deps[0];
    op.src2 = deps[1];

    // Destinations: loads and compute ops produce a value; round-robin
    // over the architectural registers so recent producers stay live for
    // dependency encoding.
    if (cls == OpClass::kLoad || cls == OpClass::kIntAlu ||
        cls == OpClass::kIntMul || cls == OpClass::kIntDiv) {
      op.dst = static_cast<RegId>(1 + next_int_dst++ % (kNumIntRegs - 1));
    } else if (is_fp(cls)) {
      op.dst = static_cast<RegId>(kNumIntRegs + next_fp_dst++ % kNumFpRegs);
    }

    if (const char* why = record_domain_violation(op)) {
      throw bad(std::string(why) + " in '" + line + "'");
    }

    // Oracle values: stores write a deterministic token, loads record the
    // program-order-correct value (so the core's value check still runs).
    if (cls == OpClass::kStore) {
      op.value = 0x9E3779B97F4A7C15ULL * ++store_counter;
      oracle.write(op.addr, op.mem_size, op.value);
    } else if (cls == OpClass::kLoad) {
      op.value = oracle.read(op.addr, op.mem_size);
    }

    t.ops.push_back(op);
    pc += 4;
  }
  return t;
}

Trace import_text_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Trace t = import_text_trace_from_string(buf.str(), path);
  // Name the trace after the file, not its full path (the SAMT header
  // name field is 23 chars; error messages keep the full path).
  t.name = std::filesystem::path(path).stem().string();
  return t;
}

}  // namespace samie::trace

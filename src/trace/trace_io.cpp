#include "src/trace/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

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

void validate_header(const std::string& path, const SamtHeader& h,
                     std::uint64_t file_bytes) {
  if (std::memcmp(h.magic, kSamtMagic, sizeof kSamtMagic) != 0) {
    fail(path, "not a SAMT trace (bad magic)");
  }
  if (h.version != kSamtVersion && h.version != kSamtVersion2) {
    fail(path, "unsupported SAMT version " + std::to_string(h.version) +
                   " (this build reads versions 1 and 2)");
  }
  if (h.record_bytes != kSamtRecordBytes) fail_record_bytes(path, h);
  // v2 payloads are block-encoded; count-vs-size consistency is enforced
  // by the guarded index, not by header arithmetic.
  if (h.version != kSamtVersion) return;
  // Divide, never multiply: `h.count * kSamtRecordBytes` can wrap
  // (count += 2^61 makes the product overflow to the exact valid size,
  // and the checksum length wraps identically — the corrupt-trace fuzz
  // suite found the file being *accepted*). Comparing against the
  // record count the payload actually holds is overflow-free.
  const std::uint64_t payload = file_bytes - sizeof(SamtHeader);
  if (payload % kSamtRecordBytes != 0 ||
      h.count != payload / kSamtRecordBytes) {
    fail(path, "truncated or oversized: header promises " +
                   std::to_string(h.count) + " records, file payload is " +
                   std::to_string(payload) + " bytes (" +
                   std::to_string(payload / kSamtRecordBytes) + " records)");
  }
}

[[noreturn]] void fail_v1_only(const std::string& path, const char* reader) {
  fail(path, std::string("SAMT v2 traces are block-encoded; ") + reader +
                 " reads only v1 — open via TraceSource or TraceV2Reader");
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

/// Reads exactly `n` bytes at `offset` (pread: the descriptor's file
/// position is left alone). False on a short read.
[[nodiscard]] bool read_at(int fd, std::uint64_t offset, void* dst,
                           std::size_t n) noexcept {
  auto* p = static_cast<unsigned char*>(dst);
  while (n != 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

/// read_samt_header's checks on an open file.
[[nodiscard]] SamtHeader read_header(const std::string& path, int fd) {
  const std::uint64_t bytes = file_size_of(path, fd);
  SamtHeader h{};
  if (bytes < sizeof h || !read_at(fd, 0, &h, sizeof h)) {
    fail(path, "too short for a SAMT header");
  }
  validate_header(path, h, bytes);
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

/// fsync the directory containing `path`, so the rename that published a
/// trace is itself durable. Best-effort: a failure here cannot un-publish
/// the file, so it is not reported.
void fsync_parent_dir(const std::string& path) noexcept {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  (void)ec;
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

// ----------------------------------------------------------- TraceReader --

SamtHeader read_samt_header(const std::string& path) {
  const FileHandle f = open_file(path, O_RDONLY);
  return read_header(path, f.get());
}

TraceReader::TraceReader(const std::string& path)
    : path_(path), header_(read_samt_header(path)) {
  if (header_.version != kSamtVersion) fail_v1_only(path, "TraceReader");
}

std::string TraceReader::name() const { return header_name(header_); }

namespace {

/// v1 records read per pread: bounds the raw buffer, not the result.
constexpr std::size_t kV1ChunkRecords = 4096;

/// Converts v1 record `r` to `out`. Returns the record-domain rule `r`
/// breaks (the two only a v1 record can break first), or nullptr.
[[nodiscard]] const char* convert_v1_record(const SamtV1Record& r,
                                            MicroOp& out) noexcept {
  if (r.mem_addr != 0 && r.br_target != 0) {
    return "memory address and branch target both set";
  }
  if (r.taken > 1) return "taken flag must be 0 or 1";
  out.pc = r.pc;
  out.addr = r.mem_addr | r.br_target;
  out.value = r.value;
  out.op = static_cast<OpClass>(r.op);
  out.mem_size = r.mem_size;
  out.src1 = r.src1;
  out.src2 = r.src2;
  out.dst = r.dst;
  out.taken = r.taken != 0;
  return record_domain_violation(out);
}

}  // namespace

Trace TraceReader::read_all(bool verify_checksum) const {
  const FileHandle f = open_file(path_, O_RDONLY);
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  const auto count = static_cast<std::size_t>(header_.count);
  t.ops.reserve(count);
  std::vector<SamtV1Record> raw(std::min(count, kV1ChunkRecords));
  std::uint64_t sum = kFnvBasis;
  std::size_t bad = 0;
  const char* why = nullptr;
  for (std::size_t first = 0; first < count; first += raw.size()) {
    const std::size_t n = std::min(raw.size(), count - first);
    if (!read_at(f.get(), sizeof(SamtHeader) + first * kSamtRecordBytes,
                 raw.data(), n * kSamtRecordBytes)) {
      fail(path_, "truncated record array");
    }
    if (verify_checksum) sum = fnv1a_64(raw.data(), n * kSamtRecordBytes, sum);
    for (std::size_t i = 0; i < n; ++i) {
      MicroOp op;
      const char* rule = convert_v1_record(raw[i], op);
      if (rule != nullptr && why == nullptr) {
        why = rule;
        bad = first + i;
      }
      t.ops.push_back(op);
    }
  }
  if (verify_checksum && sum != header_.checksum) {
    fail(path_, "record checksum mismatch");
  }
  if (why != nullptr) {
    const std::uint64_t offset =
        sizeof(SamtHeader) + std::uint64_t{bad} * kSamtRecordBytes;
    throw TraceCorruptError(path_ + ": record " + std::to_string(bad) +
                                " at offset " + std::to_string(offset) +
                                ": " + why,
                            TraceDamage::kInteriorCorrupt,
                            TraceCorruptError::kNoBlock, offset);
  }
  return t;
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
// headers of the format).

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

/// Writes `v` as LEB128 at `p` and advances `p`. Always stores eight
/// bytes at `p`, of which the encoding (at most 10 bytes) is a prefix,
/// so `p` needs room for max(8, encoded length) bytes.
[[gnu::always_inline]] inline void put_varint(unsigned char*& p,
                                              std::uint64_t v) noexcept {
  if (v < (std::uint64_t{1} << 56)) {
    const auto len =
        static_cast<unsigned>(std::bit_width(v | 1) + 6) / 7;  // 1..8
    const std::uint64_t flags =
        kVarintFlags & ((std::uint64_t{1} << (8 * (len - 1))) - 1);
    const std::uint64_t w = spread7(v) | flags;
    std::memcpy(p, &w, sizeof w);
    p += len;
    return;
  }
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
}

/// Strict LEB128: at most 10 bytes, the 10th byte may only carry the top
/// bit of a 64-bit value. Returns false on any malformed input instead
/// of wrapping, and never reads past `n`.
[[nodiscard]] bool get_varint_checked(const unsigned char* p, std::size_t n,
                                      std::size_t& pos,
                                      std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos >= n) return false;
    const unsigned char b = p[pos++];
    if (shift == 63 && (b & 0xFE) != 0) return false;  // overflow / junk
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

/// get_varint_checked for a caller that has proved at least ten bytes
/// remain at `pos`: accepts and returns exactly what the checked form
/// does there, reading the first eight bytes as one word.
[[nodiscard, gnu::always_inline]] inline bool get_varint_unchecked(
    const unsigned char* p, std::size_t& pos, std::uint64_t& out) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p + pos, sizeof w);
  const std::uint64_t stops = ~w & kVarintFlags;
  if (stops != 0) {  // ends within the word: keep bytes up to the stop
    out = pack7(w & (stops ^ (stops - 1)));
    pos += static_cast<std::size_t>(std::countr_zero(stops) / 8 + 1);
    return true;
  }
  const unsigned char b8 = p[pos + 8];
  const std::uint64_t v = pack7(w) | static_cast<std::uint64_t>(b8 & 0x7F)
                                         << 56;
  if ((b8 & 0x80) == 0) {
    out = v;
    pos += 9;
    return true;
  }
  const unsigned char b9 = p[pos + 9];
  if ((b9 & 0xFE) != 0) return false;  // overflow / junk
  out = v | static_cast<std::uint64_t>(b9) << 63;
  pos += 10;
  return true;
}

/// The checked or the unchecked varint read, chosen at compile time.
template <bool kChecked>
[[nodiscard]] bool get_varint(const unsigned char* p, std::size_t n,
                              std::size_t& pos, std::uint64_t& out) noexcept {
  if constexpr (kChecked) {
    return get_varint_checked(p, n, pos, out);
  } else {
    return get_varint_unchecked(p, pos, out);
  }
}

// --- record codec ---------------------------------------------------------
//
// Per record: one presence byte (op class in the low nibble, taken bit,
// and has-mem/has-br/has-value bits — "absent" means the field is zero,
// which is exactly what canonical records hold for inapplicable fields),
// four raw bytes (mem_size, src1, src2, dst), then varints: zigzag pc
// delta vs the previous record; a branch's `addr` as a zigzag delta vs
// its own pc (has-br), any other record's as a zigzag delta vs the
// previous *memory* address (has-mem); and the raw value. The two
// address bits are v1's two address fields, so a record sets at most
// one of them. Delta state resets per block, so blocks decode
// independently.

constexpr unsigned char kTakenBit = 0x10;
constexpr unsigned char kHasMemBit = 0x20;
constexpr unsigned char kHasBrBit = 0x40;
constexpr unsigned char kHasValueBit = 0x80;
constexpr std::uint8_t kMaxOpClass = static_cast<std::uint8_t>(OpClass::kNop);
/// The largest encoded record: five raw bytes and three 10-byte varints
/// (pc, one address, value).
constexpr std::size_t kMaxRecordBytes = 5 + 3 * 10;

struct DeltaState {
  std::uint64_t prev_pc = 0;
  std::uint64_t prev_mem = 0;
};

/// Encodes `op` at `p` (room for kMaxRecordBytes) and advances `p`.
void encode_record(const MicroOp& op, DeltaState& st,
                   unsigned char*& p) noexcept {
  const bool is_branch = op.op == OpClass::kBranch;
  const bool has_addr = op.addr != 0;
  const bool has_value = op.value != 0;
  unsigned char b0 = static_cast<unsigned char>(op.op) & 0x0F;
  if (op.taken) b0 |= kTakenBit;
  if (has_addr) b0 |= is_branch ? kHasBrBit : kHasMemBit;
  if (has_value) b0 |= kHasValueBit;
  *p++ = b0;
  *p++ = op.mem_size;
  *p++ = op.src1;
  *p++ = op.src2;
  *p++ = op.dst;
  put_varint(p, zigzag_encode(op.pc - st.prev_pc));
  st.prev_pc = op.pc;
  if (has_addr) {
    if (is_branch) {
      put_varint(p, zigzag_encode(op.addr - op.pc));
    } else {
      put_varint(p, zigzag_encode(op.addr - st.prev_mem));
      st.prev_mem = op.addr;
    }
  }
  if (has_value) put_varint(p, op.value);
}

/// Decodes one record. False for bytes no record encodes: an op class
/// past kNop, both address bits (a MicroOp holds one address), or a
/// malformed varint.
template <bool kChecked>
[[nodiscard]] bool decode_record(const unsigned char* p, std::size_t n,
                                 std::size_t& pos, DeltaState& st,
                                 MicroOp& out) noexcept {
  if (kChecked && pos + 5 > n) return false;
  const unsigned char b0 = p[pos++];
  if ((b0 & 0x0F) > kMaxOpClass) return false;
  if ((b0 & kHasMemBit) != 0 && (b0 & kHasBrBit) != 0) return false;
  MicroOp op;
  op.op = static_cast<OpClass>(b0 & 0x0F);
  op.taken = (b0 & kTakenBit) != 0;
  op.mem_size = p[pos++];
  op.src1 = p[pos++];
  op.src2 = p[pos++];
  op.dst = p[pos++];
  std::uint64_t u = 0;
  if (!get_varint<kChecked>(p, n, pos, u)) return false;
  op.pc = st.prev_pc + zigzag_decode(u);
  st.prev_pc = op.pc;
  if ((b0 & kHasMemBit) != 0) {
    if (!get_varint<kChecked>(p, n, pos, u)) return false;
    op.addr = st.prev_mem + zigzag_decode(u);
    st.prev_mem = op.addr;
  } else if ((b0 & kHasBrBit) != 0) {
    if (!get_varint<kChecked>(p, n, pos, u)) return false;
    op.addr = op.pc + zigzag_decode(u);
  }
  if ((b0 & kHasValueBit) != 0) {
    if (!get_varint<kChecked>(p, n, pos, op.value)) return false;
  }
  out = op;
  return true;
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

/// Bytes encode_block may write for a block of `n` records.
[[nodiscard]] constexpr std::size_t max_block_bytes(std::size_t n) noexcept {
  return sizeof(SamtBlockHeader) + n * kMaxRecordBytes;
}

/// Guard bytes hashed per record coded, so a guard's multiply chain
/// overlaps the record codec instead of running after it.
constexpr std::size_t kGuardBytesPerRecord = 12;

/// Continues FNV-1a hash `g` over the kGuardBytesPerRecord bytes at `p`.
[[nodiscard, gnu::always_inline]] inline std::uint64_t hash_guard_chunk(
    std::uint64_t g, const unsigned char* p) noexcept {
  for (std::size_t k = 0; k < kGuardBytesPerRecord; ++k) {
    g = (g ^ p[k]) * kFnvPrime;
  }
  return g;
}

/// An encoded block whose guard is being hashed: `guard` covers its
/// guarded header bytes and payload bytes [0, hashed).
struct PendingGuard {
  unsigned char* block = nullptr;  ///< header + payload; nullptr: none
  std::size_t payload_bytes = 0;
  std::size_t hashed = 0;
  std::uint64_t guard = 0;

  /// Hashes the next kGuardBytesPerRecord payload bytes, if that many
  /// remain.
  void step() noexcept {
    if (payload_bytes - hashed < kGuardBytesPerRecord) return;
    guard = hash_guard_chunk(guard, block + sizeof(SamtBlockHeader) + hashed);
    hashed += kGuardBytesPerRecord;
  }

  /// Hashes the rest of the payload and stores the guard in the header.
  void finish() noexcept {
    guard = fnv1a_64(block + sizeof(SamtBlockHeader) + hashed,
                     payload_bytes - hashed, guard);
    std::memcpy(block + offsetof(SamtBlockHeader, guard), &guard,
                sizeof guard);
  }
};

/// Encodes `n` records starting at global record `first_record` as one
/// block (header, then payload) at `out`, which has room for
/// max_block_bytes(n), and leaves its guard pending in `pending`. A
/// block already pending there is hashed a fixed number of bytes per
/// record encoded, so its multiply chain overlaps the encode, and then
/// finished: its guard is in its header when this returns.
void encode_block(const MicroOp* ops, std::uint32_t n,
                  std::uint64_t first_record, unsigned char* out,
                  PendingGuard& pending) noexcept {
  unsigned char* p = out + sizeof(SamtBlockHeader);
  DeltaState st;
  for (std::uint32_t i = 0; i < n; ++i) {
    encode_record(ops[i], st, p);
    pending.step();
  }
  if (pending.block != nullptr) pending.finish();
  SamtBlockHeader h;
  h.magic = kBlockMagic;
  h.record_count = n;
  h.first_record = first_record;
  h.payload_bytes =
      static_cast<std::uint32_t>(p - out - sizeof(SamtBlockHeader));
  h.reserved = 0;
  std::memcpy(out, &h, sizeof h);
  pending = PendingGuard{out, h.payload_bytes, 0,
                         fnv1a_64(&h, kBlockGuardedHeaderBytes)};
}

/// No record index: no record outside the record domain.
constexpr std::uint64_t kNoRecord = ~std::uint64_t{0};

/// Verifies one raw block (header + payload as read from the file)
/// against its index entry and its own guard, and decodes it, appending
/// its records [lo, hi) to `out`. Any mismatch throws
/// TraceCorruptError(kInteriorCorrupt): the footer and index were
/// already validated, so a bad block is interior damage. A payload that
/// fails its guard throws the guard mismatch, never a decode error, as
/// if the guard were checked first; what `out` then holds is unspecified.
/// With `check_domain`, returns the block-relative index of the first
/// stored record outside the record domain (kNoRecord if none).
std::uint64_t decode_block(const std::string& path, const unsigned char* raw,
                           std::size_t raw_bytes, const SamtIndexEntry& entry,
                           std::uint64_t block_idx, std::uint32_t lo,
                           std::uint32_t hi, std::vector<MicroOp>& out,
                           bool check_domain) {
  auto corrupt = [&](const std::string& what) -> TraceCorruptError {
    return TraceCorruptError(
        path + ": block " + std::to_string(block_idx) + " at offset " +
            std::to_string(entry.file_offset) + ": " + what,
        TraceDamage::kInteriorCorrupt, block_idx, entry.file_offset);
  };
  SamtBlockHeader h{};
  if (raw_bytes != sizeof h + entry.payload_bytes) throw corrupt("short read");
  std::memcpy(&h, raw, sizeof h);
  const unsigned char* payload = raw + sizeof h;
  if (h.magic != kBlockMagic || h.record_count != entry.record_count ||
      h.first_record != entry.first_record ||
      h.payload_bytes != entry.payload_bytes || h.guard != entry.guard) {
    throw corrupt("block header disagrees with the index");
  }
  const std::size_t n = h.payload_bytes;
  // The guard is hashed kGuardBytesPerRecord bytes per decoded record
  // and finished after the last one.
  std::uint64_t guard = fnv1a_64(&h, kBlockGuardedHeaderBytes);
  std::size_t hashed = 0;
  DeltaState st;
  std::size_t pos = 0;
  MicroOp op;
  std::uint64_t bad = kNoRecord;
  auto keep = [&](std::uint32_t i) {
    if (i < lo || i >= hi) return;
    out.push_back(op);
    if (check_domain && bad == kNoRecord &&
        record_domain_violation(op) != nullptr) {
      bad = i;
    }
  };
  bool decoded = true;
  std::uint32_t i = 0;
  // While a whole record's worth of bytes remains, no read can overrun.
  for (; i < h.record_count && n - pos >= kMaxRecordBytes; ++i) {
    if (!decode_record<false>(payload, n, pos, st, op)) {
      decoded = false;
      break;
    }
    keep(i);
    if (n - hashed >= kGuardBytesPerRecord) {
      guard = hash_guard_chunk(guard, payload + hashed);
      hashed += kGuardBytesPerRecord;
    }
  }
  for (; decoded && i < h.record_count; ++i) {
    if (!decode_record<true>(payload, n, pos, st, op)) {
      decoded = false;
      break;
    }
    keep(i);
  }
  if (fnv1a_64(payload + hashed, n - hashed, guard) != h.guard) {
    throw corrupt("guard mismatch (corrupt payload)");
  }
  if (!decoded) throw corrupt("undecodable record " + std::to_string(i));
  if (pos != h.payload_bytes) throw corrupt("trailing payload bytes");
  return bad;
}

/// Reads one raw block (header + payload) into `raw` with one pread,
/// applies an armed bit-flip fault to the in-memory copy, and decodes it
/// via decode_block.
std::uint64_t read_block(const std::string& path, int fd,
                         const SamtIndexEntry& entry, std::uint64_t block_idx,
                         const IoFault& fault, unsigned char* raw,
                         std::uint32_t lo, std::uint32_t hi,
                         std::vector<MicroOp>& out, bool check_domain) {
  const std::size_t bytes = sizeof(SamtBlockHeader) + entry.payload_bytes;
  if (!read_at(fd, entry.file_offset, raw, bytes)) {
    throw TraceCorruptError(
        path + ": block " + std::to_string(block_idx) + " unreadable",
        TraceDamage::kTornTail, block_idx, entry.file_offset);
  }
  if (fault.kind == IoFault::Kind::kBitFlipBlock &&
      fault.param == block_idx) {
    raw[bytes > sizeof(SamtBlockHeader) ? sizeof(SamtBlockHeader)
                                        : bytes - 1] ^= 0x01;
  }
  return decode_block(path, raw, bytes, entry, block_idx, lo, hi, out,
                      check_domain);
}

/// Reads, verifies and decodes blocks [b0, b1) of `index` through `fd`
/// in index order, through one raw-block buffer, appending records
/// [begin, end) of the trace to `out`. The first damaged block throws.
/// With `check_domain`, returns the lowest index of a record outside the
/// record domain (kNoRecord if none) — only once every block verified,
/// so block damage anywhere wins.
std::uint64_t decode_blocks(const std::string& path, int fd,
                            const std::vector<SamtIndexEntry>& index,
                            std::size_t b0, std::size_t b1,
                            const IoFault& fault, std::uint64_t begin,
                            std::uint64_t end, std::vector<MicroOp>& out,
                            bool check_domain) {
  std::size_t raw_bytes = 0;
  for (std::size_t b = b0; b < b1; ++b) {
    raw_bytes = std::max<std::size_t>(
        raw_bytes, sizeof(SamtBlockHeader) + index[b].payload_bytes);
  }
  std::vector<unsigned char> raw(raw_bytes);
  out.reserve(out.size() + static_cast<std::size_t>(end - begin));
  std::uint64_t bad_record = kNoRecord;
  for (std::size_t b = b0; b < b1; ++b) {
    const SamtIndexEntry& e = index[b];
    const std::uint64_t lo = std::max(begin, e.first_record);
    const std::uint64_t hi = std::min(end, e.first_record + e.record_count);
    const std::uint64_t bad = read_block(
        path, fd, e, b, fault, raw.data(),
        static_cast<std::uint32_t>(lo - e.first_record),
        static_cast<std::uint32_t>(hi - e.first_record), out,
        check_domain && bad_record == kNoRecord);
    if (bad != kNoRecord) bad_record = e.first_record + bad;
  }
  return bad_record;
}

// --- layout (header + footer + index) validation --------------------------

/// Everything read at open time, plus a damage classification instead of
/// an exception so trace_health() can report rather than throw.
struct V2Layout {
  SamtHeader header{};
  std::vector<SamtIndexEntry> index;
  std::uint64_t file_bytes = 0;
  TraceDamage damage = TraceDamage::kNone;
  std::uint64_t bad_offset = 0;
  std::string note;
};

/// Validates the header, footer and index of the v2 file open as `fd`.
/// Throws TraceFormatError for files that are not SAMT v2 at all;
/// classifies damage (torn tail / bad index) into the returned struct
/// otherwise. `cut` simulates a short read: the last `cut` bytes are
/// invisible.
[[nodiscard]] V2Layout load_v2_layout(const std::string& path, int fd,
                                      std::uint64_t cut) {
  std::uint64_t bytes = file_size_of(path, fd);
  bytes = bytes > cut ? bytes - cut : 0;

  V2Layout L;
  L.file_bytes = bytes;
  if (bytes < sizeof(SamtHeader) ||
      !read_at(fd, 0, &L.header, sizeof L.header)) {
    fail(path, "too short for a SAMT header");
  }
  if (std::memcmp(L.header.magic, kSamtMagic, sizeof kSamtMagic) != 0) {
    fail(path, "not a SAMT trace (bad magic)");
  }
  if (L.header.version != kSamtVersion2) {
    fail(path, "not a SAMT v2 trace (version " +
                   std::to_string(L.header.version) + ")");
  }
  if (L.header.record_bytes != kSamtRecordBytes) {
    fail_record_bytes(path, L.header);
  }

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
  // Two buffers: block k is encoded while block k - 1's guard finishes,
  // then block k - 1 is written.
  const std::size_t cap =
      max_block_bytes(std::min<std::size_t>(count, block_records_));
  std::vector<unsigned char> buffers(2 * cap);
  const std::uint64_t base = durable_records_;  // write() advances it
  PendingGuard pending;
  auto write = [&](const unsigned char* block) {
    SamtBlockHeader h{};
    std::memcpy(&h, block, sizeof h);
    const std::size_t bytes = sizeof h + h.payload_bytes;
    if (std::fwrite(block, 1, bytes, file_) != bytes ||
        std::fflush(file_) != 0) {
      fail(path_, "short write");
    }
    index_.push_back(SamtIndexEntry{write_offset_, h.first_record,
                                    h.record_count, h.payload_bytes,
                                    h.guard});
    durable_records_ += h.record_count;
    write_offset_ += bytes;
  };
  for (std::size_t first = 0, k = 0; first < count;
       first += block_records_, ++k) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(block_records_, count - first));
    const unsigned char* previous = pending.block;
    encode_block(ops + first, n, base + first,
                 buffers.data() + (k % 2) * cap, pending);
    if (previous != nullptr) write(previous);
  }
  if (pending.block != nullptr) {
    pending.finish();
    write(pending.block);
  }
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
  fsync_parent_dir(path_);
}

void TraceWriterV2::abandon() noexcept {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(tmp_path_.c_str());
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
  load_layout();
}

TraceV2Reader::TraceV2Reader(const std::string& path, FileHandle file)
    : path_(path), fault_(take_io_fault(path)), file_(std::move(file)) {
  load_layout();
}

std::optional<TraceV2Reader> TraceV2Reader::open_if_v2(
    const std::string& path) {
  FileHandle file = open_file(path, O_RDONLY);
  if (read_header(path, file.get()).version != kSamtVersion2) {
    return std::nullopt;
  }
  return TraceV2Reader(path, std::move(file));
}

void TraceV2Reader::load_layout() {
  V2Layout L = load_v2_layout(path_, file_.get(), short_read_cut(fault_));
  if (L.damage != TraceDamage::kNone) {
    throw TraceCorruptError(path_ + ": " + L.note, L.damage,
                            TraceCorruptError::kNoBlock, L.bad_offset);
  }
  header_ = L.header;
  index_ = std::move(L.index);
}

std::string TraceV2Reader::name() const { return header_name(header_); }

std::uint64_t TraceV2Reader::decode(std::uint64_t begin, std::uint64_t end,
                                    std::vector<MicroOp>& out,
                                    bool check_domain) const {
  // First block whose record range reaches `begin`, and the first past
  // `end` (index entries carry contiguous first_record values).
  const auto first = std::partition_point(
      index_.begin(), index_.end(), [begin](const SamtIndexEntry& e) {
        return e.first_record + e.record_count <= begin;
      });
  const auto last = std::partition_point(
      first, index_.end(),
      [end](const SamtIndexEntry& e) { return e.first_record < end; });
  return decode_blocks(path_, file_.get(), index_,
                       static_cast<std::size_t>(first - index_.begin()),
                       static_cast<std::size_t>(last - index_.begin()),
                       fault_, begin, end, out, check_domain);
}

std::vector<MicroOp> TraceV2Reader::read_range(std::uint64_t begin,
                                               std::uint64_t end) const {
  if (end > header_.count) end = header_.count;
  if (begin > end) begin = end;
  std::vector<MicroOp> out;
  if (begin != end) (void)decode(begin, end, out, false);
  return out;
}

Trace TraceV2Reader::read_all() const {
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  t.ops = read_range(0, header_.count);
  return t;
}

Trace TraceV2Reader::read_all_in_domain() const {
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  if (header_.count == 0) return t;
  const std::uint64_t bad = decode(0, header_.count, t.ops, true);
  if (bad == kNoRecord) return t;
  const auto block = std::partition_point(
      index_.begin(), index_.end(), [bad](const SamtIndexEntry& e) {
        return e.first_record + e.record_count <= bad;
      });
  const auto b = static_cast<std::uint64_t>(block - index_.begin());
  throw TraceCorruptError(
      path_ + ": block " + std::to_string(b) + " at offset " +
          std::to_string(block->file_offset) + ": record " +
          std::to_string(bad) + ": " +
          record_domain_violation(t.ops[static_cast<std::size_t>(bad)]),
      TraceDamage::kInteriorCorrupt, b, block->file_offset);
}

// ---------------------------------------------------------- trace_health --

TraceHealth trace_health(const std::string& path) {
  const IoFault fault = take_io_fault(path);
  const std::uint64_t cut = short_read_cut(fault);

  // Sniff the version first; v1 and v2 walk differently.
  const FileHandle f = open_file(path, O_RDONLY);
  SamtHeader sniff{};
  {
    const std::uint64_t bytes = file_size_of(path, f.get());
    if (bytes < sizeof sniff || !read_at(f.get(), 0, &sniff, sizeof sniff)) {
      fail(path, "too short for a SAMT header");
    }
    if (std::memcmp(sniff.magic, kSamtMagic, sizeof kSamtMagic) != 0) {
      fail(path, "not a SAMT trace (bad magic)");
    }
    if (sniff.version != kSamtVersion && sniff.version != kSamtVersion2) {
      fail(path, "unsupported SAMT version " + std::to_string(sniff.version) +
                     " (this build reads versions 1 and 2)");
    }
    if (sniff.record_bytes != kSamtRecordBytes) fail_record_bytes(path, sniff);
  }

  TraceHealth h;
  h.version = sniff.version;
  h.record_count = sniff.count;

  if (sniff.version == kSamtVersion) {
    // v1 is one whole-file checksum: report it as a single pseudo-block.
    std::uint64_t bytes = file_size_of(path, f.get());
    bytes = bytes > cut ? bytes - cut : 0;
    BlockHealth blk{sizeof(SamtHeader), 0,
                    static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(sniff.count, ~std::uint32_t{0})),
                    false};
    const std::uint64_t payload =
        bytes >= sizeof(SamtHeader) ? bytes - sizeof(SamtHeader) : 0;
    if (payload % kSamtRecordBytes != 0 ||
        sniff.count != payload / kSamtRecordBytes) {
      h.damage = TraceDamage::kTornTail;
      h.first_bad_offset = bytes;
      h.bad_blocks = 1;
      h.blocks.push_back(blk);
      return h;
    }
    std::vector<SamtV1Record> recs(static_cast<std::size_t>(sniff.count));
    if (!read_at(f.get(), sizeof(SamtHeader), recs.data(),
                 recs.size() * kSamtRecordBytes)) {
      h.damage = TraceDamage::kTornTail;
      h.first_bad_offset = bytes;
      h.bad_blocks = 1;
      h.blocks.push_back(blk);
      return h;
    }
    blk.ok =
        fnv1a_64(recs.data(), recs.size() * kSamtRecordBytes) == sniff.checksum;
    if (!blk.ok) {
      h.damage = TraceDamage::kInteriorCorrupt;
      h.first_bad_offset = sizeof(SamtHeader);
      h.bad_blocks = 1;
    }
    h.blocks.push_back(blk);
    return h;
  }

  V2Layout L = load_v2_layout(path, f.get(), cut);
  h.record_count = L.header.count;
  if (L.damage != TraceDamage::kNone) {
    h.damage = L.damage;
    h.first_bad_offset = L.bad_offset;
    return h;
  }
  std::vector<unsigned char> raw;
  std::vector<MicroOp> scratch;
  h.blocks.reserve(L.index.size());
  for (std::size_t i = 0; i < L.index.size(); ++i) {
    const SamtIndexEntry& e = L.index[i];
    BlockHealth blk{e.file_offset, e.first_record, e.record_count, true};
    raw.resize(sizeof(SamtBlockHeader) + e.payload_bytes);
    scratch.clear();
    try {
      (void)read_block(path, f.get(), e, i, fault, raw.data(), 0,
                       e.record_count, scratch, false);
    } catch (const TraceCorruptError&) {
      blk.ok = false;
      ++h.bad_blocks;
      if (h.damage == TraceDamage::kNone) {
        h.damage = TraceDamage::kInteriorCorrupt;
        h.first_bad_offset = e.file_offset;
      }
    }
    h.blocks.push_back(blk);
  }
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

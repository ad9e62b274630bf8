#include "src/trace/trace_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
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

namespace samie::trace {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw TraceFormatError(path + ": " + what);
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
  if (h.record_bytes != sizeof(MicroOp)) {
    fail(path, "record size " + std::to_string(h.record_bytes) +
                   " does not match this build's MicroOp (" +
                   std::to_string(sizeof(MicroOp)) + " bytes)");
  }
  // v2 payloads are block-encoded; count-vs-size consistency is enforced
  // by the guarded index, not by header arithmetic.
  if (h.version != kSamtVersion) return;
  // Divide, never multiply: `h.count * sizeof(MicroOp)` can wrap
  // (count += 2^61 makes the product overflow to the exact valid size,
  // and the checksum length wraps identically — the corrupt-trace fuzz
  // suite found the file being *accepted*). Comparing against the
  // record count the payload actually holds is overflow-free.
  const std::uint64_t payload = file_bytes - sizeof(SamtHeader);
  if (payload % sizeof(MicroOp) != 0 || h.count != payload / sizeof(MicroOp)) {
    fail(path, "truncated or oversized: header promises " +
                   std::to_string(h.count) + " records, file payload is " +
                   std::to_string(payload) + " bytes (" +
                   std::to_string(payload / sizeof(MicroOp)) + " records)");
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

[[nodiscard]] std::uint64_t file_size_of(const std::string& path,
                                         std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) fail(path, "seek failed");
  const long n = std::ftell(f);
  if (n < 0) fail(path, "tell failed");
  if (std::fseek(f, 0, SEEK_SET) != 0) fail(path, "seek failed");
  return static_cast<std::uint64_t>(n);
}

/// Closes a FILE* on scope exit (exception-safe read paths).
struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

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
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  const std::uint64_t bytes = file_size_of(path, f);
  SamtHeader h{};
  if (bytes < sizeof h || std::fread(&h, sizeof h, 1, f) != 1) {
    std::fclose(f);
    fail(path, "too short for a SAMT header");
  }
  std::fclose(f);
  validate_header(path, h, bytes);
  return h;
}

TraceReader::TraceReader(const std::string& path)
    : path_(path), header_(read_samt_header(path)) {
  if (header_.version != kSamtVersion) fail_v1_only(path, "TraceReader");
}

std::string TraceReader::name() const { return header_name(header_); }

Trace TraceReader::read_all() const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    fail(path_, std::string("cannot open: ") + std::strerror(errno));
  }
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  bool ok = std::fseek(f, sizeof(SamtHeader), SEEK_SET) == 0;
  if (ok) {
    t.ops.resize(static_cast<std::size_t>(header_.count));
    ok = header_.count == 0 ||
         std::fread(t.ops.data(), sizeof(MicroOp),
                    static_cast<std::size_t>(header_.count),
                    f) == header_.count;
  }
  std::fclose(f);
  if (!ok) fail(path_, "truncated record array");
  const std::uint64_t sum =
      fnv1a_64(t.ops.data(), t.ops.size() * sizeof(MicroOp));
  if (sum != header_.checksum) fail(path_, "record checksum mismatch");
  return t;
}

// ----------------------------------------------------------- MappedTrace --

MappedTrace::MappedTrace(const std::string& path, bool verify_checksum) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "stat failed");
  }
  const auto bytes = static_cast<std::uint64_t>(st.st_size);
  if (bytes < sizeof(SamtHeader)) {
    ::close(fd);
    fail(path, "too short for a SAMT header");
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(bytes), PROT_READ,
                     MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    fail(path, std::string("mmap failed: ") + std::strerror(errno));
  }
  map_ = map;
  map_len_ = static_cast<std::size_t>(bytes);
  std::memcpy(&header_, map_, sizeof header_);
  try {
    validate_header(path, header_, bytes);
    if (header_.version != kSamtVersion) fail_v1_only(path, "MappedTrace");
  } catch (...) {
    unmap();
    throw;
  }
  records_ = reinterpret_cast<const MicroOp*>(
      static_cast<const char*>(map_) + sizeof(SamtHeader));
  // Sequential replay: tell the kernel to read ahead aggressively.
  ::madvise(map_, map_len_, MADV_SEQUENTIAL);
  if (verify_checksum) {
    const std::uint64_t sum =
        fnv1a_64(records_, static_cast<std::size_t>(header_.count) *
                               sizeof(MicroOp));
    if (sum != header_.checksum) {
      unmap();
      fail(path, "record checksum mismatch");
    }
  }
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : header_(other.header_),
      map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      records_(std::exchange(other.records_, nullptr)) {}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    unmap();
    header_ = other.header_;
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    records_ = std::exchange(other.records_, nullptr);
  }
  return *this;
}

MappedTrace::~MappedTrace() { unmap(); }

void MappedTrace::advise_dontneed() const noexcept {
  if (map_ != nullptr) ::madvise(map_, map_len_, MADV_DONTNEED);
}

void MappedTrace::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
    records_ = nullptr;
  }
}

std::string MappedTrace::name() const { return header_name(header_); }

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

void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

/// Strict LEB128: bounds-checked, at most 10 bytes, the 10th byte may
/// only carry the top bit of a 64-bit value. Returns false on any
/// malformed input instead of reading past `n` or wrapping.
[[nodiscard]] bool get_varint(const unsigned char* p, std::size_t n,
                              std::size_t& pos, std::uint64_t& out) {
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

// --- record codec ---------------------------------------------------------
//
// Per record: one presence byte (op class in the low nibble, taken bit,
// and has-mem/has-br/has-value bits — "absent" means the field is zero,
// which is exactly what canonical records hold for inapplicable fields),
// four raw bytes (mem_size, src1, src2, dst), then varints: zigzag pc
// delta vs the previous record, zigzag mem_addr delta vs the previous
// *memory* record, zigzag br_target delta vs this record's pc, and the
// raw value. Delta state resets per block, so blocks decode independently.

constexpr unsigned char kTakenBit = 0x10;
constexpr unsigned char kHasMemBit = 0x20;
constexpr unsigned char kHasBrBit = 0x40;
constexpr unsigned char kHasValueBit = 0x80;
constexpr std::uint8_t kMaxOpClass = static_cast<std::uint8_t>(OpClass::kNop);

struct DeltaState {
  std::uint64_t prev_pc = 0;
  std::uint64_t prev_mem = 0;
};

void encode_record(const MicroOp& op, DeltaState& st,
                   std::vector<unsigned char>& out) {
  const bool has_mem = op.mem_addr != 0;
  const bool has_br = op.br_target != 0;
  const bool has_value = op.value != 0;
  unsigned char b0 = static_cast<unsigned char>(op.op) & 0x0F;
  if (op.taken) b0 |= kTakenBit;
  if (has_mem) b0 |= kHasMemBit;
  if (has_br) b0 |= kHasBrBit;
  if (has_value) b0 |= kHasValueBit;
  out.push_back(b0);
  out.push_back(op.mem_size);
  out.push_back(op.src1);
  out.push_back(op.src2);
  out.push_back(op.dst);
  put_varint(out, zigzag_encode(op.pc - st.prev_pc));
  st.prev_pc = op.pc;
  if (has_mem) {
    put_varint(out, zigzag_encode(op.mem_addr - st.prev_mem));
    st.prev_mem = op.mem_addr;
  }
  if (has_br) put_varint(out, zigzag_encode(op.br_target - op.pc));
  if (has_value) put_varint(out, op.value);
}

[[nodiscard]] bool decode_record(const unsigned char* p, std::size_t n,
                                 std::size_t& pos, DeltaState& st,
                                 MicroOp& out) {
  if (pos + 5 > n) return false;
  const unsigned char b0 = p[pos++];
  if ((b0 & 0x0F) > kMaxOpClass) return false;
  MicroOp op;
  op.op = static_cast<OpClass>(b0 & 0x0F);
  op.taken = (b0 & kTakenBit) != 0;
  op.mem_size = p[pos++];
  op.src1 = p[pos++];
  op.src2 = p[pos++];
  op.dst = p[pos++];
  std::uint64_t u = 0;
  if (!get_varint(p, n, pos, u)) return false;
  op.pc = st.prev_pc + zigzag_decode(u);
  st.prev_pc = op.pc;
  op.mem_addr = 0;
  if ((b0 & kHasMemBit) != 0) {
    if (!get_varint(p, n, pos, u)) return false;
    op.mem_addr = st.prev_mem + zigzag_decode(u);
    st.prev_mem = op.mem_addr;
  }
  op.br_target = 0;
  if ((b0 & kHasBrBit) != 0) {
    if (!get_varint(p, n, pos, u)) return false;
    op.br_target = op.pc + zigzag_decode(u);
  }
  op.value = 0;
  if ((b0 & kHasValueBit) != 0) {
    if (!get_varint(p, n, pos, op.value)) return false;
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

struct EncodedBlock {
  SamtBlockHeader header{};
  std::vector<unsigned char> payload;
};

[[nodiscard]] EncodedBlock encode_block(const MicroOp* ops, std::uint32_t n,
                                        std::uint64_t first_record) {
  EncodedBlock b;
  b.payload.reserve(static_cast<std::size_t>(n) * 12);
  DeltaState st;
  for (std::uint32_t i = 0; i < n; ++i) encode_record(ops[i], st, b.payload);
  b.header.magic = kBlockMagic;
  b.header.record_count = n;
  b.header.first_record = first_record;
  b.header.payload_bytes = static_cast<std::uint32_t>(b.payload.size());
  b.header.reserved = 0;
  b.header.guard = block_guard(b.header, b.payload.data(), b.payload.size());
  return b;
}

/// Verifies one raw block (header + payload as read from the file)
/// against its index entry and its own guard, then decodes it into `out`.
/// Any mismatch throws TraceCorruptError(kInteriorCorrupt): the footer
/// and index were already validated, so a bad block is interior damage.
void decode_block(const std::string& path, const unsigned char* raw,
                  std::size_t raw_bytes, const SamtIndexEntry& entry,
                  std::uint64_t block_idx, std::vector<MicroOp>& out) {
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
  if (block_guard(h, payload, h.payload_bytes) != h.guard) {
    throw corrupt("guard mismatch (corrupt payload)");
  }
  DeltaState st;
  std::size_t pos = 0;
  MicroOp op;
  for (std::uint32_t i = 0; i < h.record_count; ++i) {
    if (!decode_record(payload, h.payload_bytes, pos, st, op)) {
      throw corrupt("undecodable record " + std::to_string(i));
    }
    out.push_back(op);
  }
  if (pos != h.payload_bytes) throw corrupt("trailing payload bytes");
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

[[nodiscard]] bool read_at(std::FILE* f, std::uint64_t offset, void* dst,
                           std::size_t n) {
  return std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
         (n == 0 || std::fread(dst, 1, n, f) == n);
}

/// Opens a v2 file and validates header, footer and index. Throws
/// TraceFormatError for files that are not SAMT v2 at all; classifies
/// damage (torn tail / bad index) into the returned struct otherwise.
/// `cut` simulates a short read: the last `cut` bytes are invisible.
[[nodiscard]] V2Layout load_v2_layout(const std::string& path,
                                      std::uint64_t cut) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  std::uint64_t bytes = file_size_of(path, f.get());
  bytes = bytes > cut ? bytes - cut : 0;

  V2Layout L;
  L.file_bytes = bytes;
  if (bytes < sizeof(SamtHeader) ||
      !read_at(f.get(), 0, &L.header, sizeof L.header)) {
    fail(path, "too short for a SAMT header");
  }
  if (std::memcmp(L.header.magic, kSamtMagic, sizeof kSamtMagic) != 0) {
    fail(path, "not a SAMT trace (bad magic)");
  }
  if (L.header.version != kSamtVersion2) {
    fail(path, "not a SAMT v2 trace (version " +
                   std::to_string(L.header.version) + ")");
  }
  if (L.header.record_bytes != sizeof(MicroOp)) {
    fail(path, "record size " + std::to_string(L.header.record_bytes) +
                   " does not match this build's MicroOp (" +
                   std::to_string(sizeof(MicroOp)) + " bytes)");
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
  if (!read_at(f.get(), bytes - sizeof footer, &footer, sizeof footer)) {
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
  if (!read_at(f.get(), footer.index_offset, region.data(), region.size())) {
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

/// Reads one raw block (header + payload), applying an armed bit-flip
/// fault to the in-memory copy, and decodes it via decode_block.
void read_and_decode_block(const std::string& path, std::FILE* f,
                           const SamtIndexEntry& entry,
                           std::uint64_t block_idx, const IoFault& fault,
                           std::vector<MicroOp>& out) {
  std::vector<unsigned char> raw(sizeof(SamtBlockHeader) +
                                 entry.payload_bytes);
  if (!read_at(f, entry.file_offset, raw.data(), raw.size())) {
    throw TraceCorruptError(
        path + ": block " + std::to_string(block_idx) + " unreadable",
        TraceDamage::kTornTail, block_idx, entry.file_offset);
  }
  if (fault.kind == IoFault::Kind::kBitFlipBlock &&
      fault.param == block_idx) {
    raw[raw.size() > sizeof(SamtBlockHeader) ? sizeof(SamtBlockHeader)
                                             : raw.size() - 1] ^= 0x01;
  }
  decode_block(path, raw.data(), raw.size(), entry, block_idx, out);
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
  header_.record_bytes = sizeof(MicroOp);
  header_.seed = seed;
  std::memcpy(header_.name, name.data(),
              std::min(name.size(), sizeof header_.name - 1));
  pending_.reserve(block_records_);

  if (mode == Mode::kResume) {
    // Keep the intact leading blocks of an existing tmp: scan forward
    // verifying every guard, truncate at the first break, append there.
    std::FILE* f = std::fopen(tmp_path_.c_str(), "r+b");
    if (f != nullptr) {
      SamtHeader h{};
      const std::uint64_t bytes = file_size_of(tmp_path_, f);
      bool usable = bytes >= sizeof h && read_at(f, 0, &h, sizeof h) &&
                    std::memcmp(h.magic, kSamtMagic, sizeof kSamtMagic) == 0 &&
                    h.version == kSamtVersion2 &&
                    h.record_bytes == sizeof(MicroOp);
      if (usable) {
        std::uint64_t off = sizeof h;
        std::vector<unsigned char> raw;
        while (off + sizeof(SamtBlockHeader) <= bytes) {
          SamtBlockHeader bh{};
          if (!read_at(f, off, &bh, sizeof bh) || bh.magic != kBlockMagic ||
              bh.first_record != durable_records_ || bh.record_count == 0 ||
              bh.payload_bytes > bytes - off - sizeof bh) {
            break;
          }
          raw.resize(bh.payload_bytes);
          if (!read_at(f, off + sizeof bh, raw.data(), raw.size()) ||
              block_guard(bh, raw.data(), raw.size()) != bh.guard) {
            break;
          }
          index_.push_back(SamtIndexEntry{off, bh.first_record,
                                          bh.record_count, bh.payload_bytes,
                                          bh.guard});
          durable_records_ += bh.record_count;
          off += sizeof bh + bh.payload_bytes;
        }
        usable = ::ftruncate(::fileno(f), static_cast<off_t>(off)) == 0 &&
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
  for (const MicroOp& op : ops) {
    pending_.push_back(op);
    if (pending_.size() == block_records_) flush_block();
  }
}

void TraceWriterV2::flush_block() {
  if (pending_.empty()) return;
  const EncodedBlock b =
      encode_block(pending_.data(), static_cast<std::uint32_t>(pending_.size()),
                   durable_records_);
  if (std::fwrite(&b.header, sizeof b.header, 1, file_) != 1 ||
      (b.payload.empty()
           ? false
           : std::fwrite(b.payload.data(), 1, b.payload.size(), file_) !=
                 b.payload.size()) ||
      std::fflush(file_) != 0) {
    fail(path_, "short write");
  }
  index_.push_back(SamtIndexEntry{write_offset_, b.header.first_record,
                                  b.header.record_count,
                                  b.header.payload_bytes, b.header.guard});
  durable_records_ += pending_.size();
  write_offset_ += sizeof b.header + b.payload.size();
  pending_.clear();
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

TraceV2Reader::TraceV2Reader(const std::string& path) : path_(path) {
  fault_ = take_io_fault(path);
  V2Layout L = load_v2_layout(path, short_read_cut(fault_));
  if (L.damage != TraceDamage::kNone) {
    throw TraceCorruptError(path + ": " + L.note, L.damage,
                            TraceCorruptError::kNoBlock, L.bad_offset);
  }
  header_ = L.header;
  index_ = std::move(L.index);
}

std::string TraceV2Reader::name() const { return header_name(header_); }

std::vector<MicroOp> TraceV2Reader::read_range(std::uint64_t begin,
                                               std::uint64_t end) const {
  if (end > header_.count) end = header_.count;
  if (begin > end) begin = end;
  std::vector<MicroOp> out;
  if (begin == end) return out;
  out.reserve(static_cast<std::size_t>(end - begin));

  // First block whose record range reaches `begin` (index entries carry
  // contiguous first_record values, so this is a binary search).
  std::size_t bi = 0;
  {
    std::size_t lo = 0;
    std::size_t hi = index_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (index_[mid].first_record + index_[mid].record_count <= begin) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bi = lo;
  }

  FilePtr f(std::fopen(path_.c_str(), "rb"));
  if (f == nullptr) {
    fail(path_, std::string("cannot open: ") + std::strerror(errno));
  }
  std::vector<MicroOp> decoded;
  for (; bi < index_.size() && index_[bi].first_record < end; ++bi) {
    const SamtIndexEntry& e = index_[bi];
    decoded.clear();
    read_and_decode_block(path_, f.get(), e, bi, fault_, decoded);
    const std::uint64_t lo = std::max(begin, e.first_record);
    const std::uint64_t hi = std::min(end, e.first_record + e.record_count);
    out.insert(out.end(),
               decoded.begin() + static_cast<std::ptrdiff_t>(lo -
                                                             e.first_record),
               decoded.begin() + static_cast<std::ptrdiff_t>(hi -
                                                             e.first_record));
  }
  return out;
}

Trace TraceV2Reader::read_all() const {
  Trace t;
  t.name = name();
  t.seed = header_.seed;
  t.ops = read_range(0, header_.count);
  return t;
}

// ---------------------------------------------------------- trace_health --

TraceHealth trace_health(const std::string& path) {
  const IoFault fault = take_io_fault(path);
  const std::uint64_t cut = short_read_cut(fault);

  // Sniff the version first; v1 and v2 walk differently.
  SamtHeader sniff{};
  {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (f == nullptr) {
      fail(path, std::string("cannot open: ") + std::strerror(errno));
    }
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
    if (sniff.record_bytes != sizeof(MicroOp)) {
      fail(path, "record size " + std::to_string(sniff.record_bytes) +
                     " does not match this build's MicroOp (" +
                     std::to_string(sizeof(MicroOp)) + " bytes)");
    }
  }

  TraceHealth h;
  h.version = sniff.version;
  h.record_count = sniff.count;

  if (sniff.version == kSamtVersion) {
    // v1 is one whole-file checksum: report it as a single pseudo-block.
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (f == nullptr) {
      fail(path, std::string("cannot open: ") + std::strerror(errno));
    }
    std::uint64_t bytes = file_size_of(path, f.get());
    bytes = bytes > cut ? bytes - cut : 0;
    BlockHealth blk{sizeof(SamtHeader), 0,
                    static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(sniff.count, ~std::uint32_t{0})),
                    false};
    const std::uint64_t payload =
        bytes >= sizeof(SamtHeader) ? bytes - sizeof(SamtHeader) : 0;
    if (payload % sizeof(MicroOp) != 0 ||
        sniff.count != payload / sizeof(MicroOp)) {
      h.damage = TraceDamage::kTornTail;
      h.first_bad_offset = bytes;
      h.bad_blocks = 1;
      h.blocks.push_back(blk);
      return h;
    }
    std::vector<MicroOp> recs(static_cast<std::size_t>(sniff.count));
    if (!read_at(f.get(), sizeof(SamtHeader), recs.data(),
                 recs.size() * sizeof(MicroOp))) {
      h.damage = TraceDamage::kTornTail;
      h.first_bad_offset = bytes;
      h.bad_blocks = 1;
      h.blocks.push_back(blk);
      return h;
    }
    blk.ok =
        fnv1a_64(recs.data(), recs.size() * sizeof(MicroOp)) == sniff.checksum;
    if (!blk.ok) {
      h.damage = TraceDamage::kInteriorCorrupt;
      h.first_bad_offset = sizeof(SamtHeader);
      h.bad_blocks = 1;
    }
    h.blocks.push_back(blk);
    return h;
  }

  V2Layout L = load_v2_layout(path, cut);
  h.record_count = L.header.count;
  if (L.damage != TraceDamage::kNone) {
    h.damage = L.damage;
    h.first_bad_offset = L.bad_offset;
    return h;
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  std::vector<MicroOp> scratch;
  h.blocks.reserve(L.index.size());
  for (std::size_t i = 0; i < L.index.size(); ++i) {
    const SamtIndexEntry& e = L.index[i];
    BlockHealth blk{e.file_offset, e.first_record, e.record_count, true};
    scratch.clear();
    try {
      read_and_decode_block(path, f.get(), e, i, fault, scratch);
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

/// Oracle memory for the importer: program-order byte store, same
/// semantics as WorkloadGenerator's page map.
class OracleMemory {
 public:
  void store(Addr addr, std::uint32_t bytes, std::uint64_t value) {
    for (std::uint32_t i = 0; i < bytes; ++i) {
      bytes_[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
  [[nodiscard]] std::uint64_t load(Addr addr, std::uint32_t bytes) const {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < bytes; ++i) {
      const auto it = bytes_.find(addr + i);
      const std::uint8_t b = it == bytes_.end() ? 0 : it->second;
      v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return v;
  }

 private:
  std::unordered_map<Addr, std::uint8_t> bytes_;
};

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
  OracleMemory oracle;
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
      op.mem_addr = number_at(f++, "an address");
      const std::uint64_t size = number_at(f++, "an access size");
      if (size != 4 && size != 8) {
        throw bad("access size must be 4 or 8, got " + std::to_string(size));
      }
      if (op.mem_addr % size != 0) {
        throw bad("address 0x" + [&] {
          std::ostringstream os;
          os << std::hex << op.mem_addr;
          return os.str();
        }() + " is not " + std::to_string(size) + "-byte aligned");
      }
      op.mem_size = static_cast<std::uint8_t>(size);
    } else if (cls == OpClass::kBranch) {
      if (f < tok.size()) {
        const std::uint64_t taken = number_at(f++, "a taken flag (0/1)");
        if (taken > 1) throw bad("taken flag must be 0 or 1");
        op.taken = taken != 0;
      }
      if (f < tok.size()) {
        op.br_target = number_at(f++, "a branch target");
      } else {
        // Synthesized control flow: taken branches close a short backward
        // loop, not-taken ones skip ahead (both deterministic).
        op.br_target = op.taken && pc >= 64 ? pc - 64 : pc + 8;
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

    // Oracle values: stores write a deterministic token, loads record the
    // program-order-correct value (so the core's value check still runs).
    if (cls == OpClass::kStore) {
      op.value = 0x9E3779B97F4A7C15ULL * ++store_counter;
      oracle.store(op.mem_addr, op.mem_size, op.value);
    } else if (cls == OpClass::kLoad) {
      op.value = oracle.load(op.mem_addr, op.mem_size);
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

#include "src/sim/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/common/fsync_dir.h"
#include "src/trace/trace_io.h"  // fnv1a_64

namespace samie::sim {

namespace {

constexpr char kMagicLine[] = "# samie-sweep-checkpoint v1";

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw CheckpointError(path + ": " + what);
}

[[nodiscard]] std::string fnv_hex(std::string_view payload) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                trace::fnv1a_64(payload.data(), payload.size()));
  return buf;
}

void flush_and_sync(const std::string& path, std::FILE* f) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    io_fail(path, std::string("cannot sync: ") + std::strerror(errno));
  }
}

/// Truncates the journal at `path`, open for writing as `fd`, after its
/// last newline: the bytes past it are a line whose append was cut
/// short, which load_checkpoint ignores and an append would extend.
void cut_torn_tail(const std::string& path, int fd) {
  std::ifstream in(path, std::ios::binary);
  if (!in) io_fail(path, std::string("cannot read: ") + std::strerror(errno));
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::size_t keep = bytes.rfind('\n') + 1;  // 0: no newline at all
  if (keep != 0 && keep != bytes.size() &&
      ::ftruncate(fd, static_cast<off_t>(keep)) != 0) {
    io_fail(path, std::string("cannot cut the torn tail: ") +
                      std::strerror(errno));
  }
}

}  // namespace

CheckpointWriter CheckpointWriter::create(const std::string& path,
                                          std::uint64_t njobs,
                                          std::uint64_t fingerprint) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    io_fail(tmp, std::string("cannot create: ") + std::strerror(errno));
  }
  std::ostringstream header;
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, fingerprint);
  header << njobs << '\t' << fp;
  const std::string line =
      std::string(kMagicLine) + '\n' + guarded_line('H', header.str());
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    io_fail(tmp, "short write");
  }
  flush_and_sync(tmp, f);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    io_fail(path, std::string("cannot rename into place: ") +
                      std::strerror(errno));
  }
  if (!fsync_parent_dir(path)) {
    io_fail(path, "cannot fsync parent directory after rename");
  }
  return append_to(path);
}

CheckpointWriter CheckpointWriter::append_to(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    io_fail(path, std::string("cannot open for append: ") +
                      std::strerror(errno));
  }
  CheckpointWriter w(path, f);
  cut_torn_tail(path, ::fileno(f));
  return w;
}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)) {}

CheckpointWriter& CheckpointWriter::operator=(CheckpointWriter&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
  }
  return *this;
}

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::close() noexcept {
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  (void)fsync_parent_dir(path_);
}

void CheckpointWriter::append_line(char type, const std::string& payload) {
  if (file_ == nullptr) io_fail(path_, "append on a closed or moved-from writer");
  if (payload.find('\n') != std::string::npos) {
    io_fail(path_, "record payload contains a newline");
  }
  const std::string line = guarded_line(type, payload);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    io_fail(path_, "short write");
  }
  flush_and_sync(path_, file_);
}

void CheckpointWriter::append_record(const std::string& payload) {
  append_line('R', payload);
}

void CheckpointWriter::append_quarantine(const std::string& payload) {
  append_line('Q', payload);
}

void CheckpointWriter::append_damaged(const std::string& payload) {
  append_line('D', payload);
}

CheckpointContents load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    io_fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  CheckpointContents out;
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    io_fail(path, "not a sweep checkpoint (bad magic line)");
  }
  // Each line keeps the newline getline strips, when it had one: the
  // writer puts it last, so a line without it was cut short.
  const auto next_line = [&in, &line] {
    if (!std::getline(in, line)) return false;
    if (!in.eof()) line += '\n';
    return true;
  };
  std::optional<std::string> header;
  if (!next_line() || !(header = parse_guarded_line(line, 'H'))) {
    io_fail(path, "torn or missing checkpoint header");
  }
  {
    std::istringstream hs(*header);
    std::string fp;
    if (!(hs >> out.njobs >> fp) || fp.size() != 16) {
      io_fail(path, "malformed checkpoint header fields");
    }
    out.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
  }
  while (next_line()) {
    if (line == "\n") continue;
    if (std::optional<std::string> p = parse_guarded_line(line, 'R')) {
      out.records.push_back(std::move(*p));
    } else if ((p = parse_guarded_line(line, 'Q'))) {
      out.quarantined.push_back(std::move(*p));
    } else if ((p = parse_guarded_line(line, 'D'))) {
      out.damaged.push_back(std::move(*p));
    } else {
      // A torn tail after a kill mid-append, or bit rot: the newline or
      // the FNV guard rejects it and the job simply re-runs on resume.
      ++out.ignored_lines;
    }
  }
  return out;
}

std::string guarded_line(char type, std::string_view payload) {
  return std::string(1, type) + '\t' + fnv_hex(payload) + '\t' +
         std::string(payload) + '\n';
}

std::optional<std::string> parse_guarded_line(std::string_view line,
                                              char type) {
  if (line.size() < 20 || line[0] != type || line[1] != '\t' ||
      line[18] != '\t' || line.back() != '\n') {
    return std::nullopt;
  }
  const std::string_view payload = line.substr(19, line.size() - 20);
  if (payload.find('\n') != std::string_view::npos ||
      line.substr(2, 16) != fnv_hex(payload)) {
    return std::nullopt;
  }
  return std::string(payload);
}

// -- SimResult round-trip ----------------------------------------------------

namespace {

/// Calls `f` on every field the result text carries, in its order; both
/// serialize_sim_result and parse_sim_result walk this one list.
template <typename Result, typename F>
void for_each_field(Result& r, F&& f) {
  auto& c = r.core;
  f(c.cycles);
  f(c.committed);
  f(c.ipc);
  f(c.mispredict_squashes);
  f(c.deadlock_flushes);
  f(c.loads_executed);
  f(c.stores_committed);
  f(c.forwarded_loads);
  f(c.partial_forward_waits);
  f(c.agen_gated);
  f(c.value_mismatches);
  f(c.dcache_way_known);
  f(c.dcache_full);
  f(c.dtlb_accesses);
  f(c.dtlb_cached);
  f(c.quiescent_cycles_skipped);
  f(c.fast_forwards);
  f(r.lsq_energy_nj);
  f(r.lsq_distrib_nj);
  f(r.lsq_shared_nj);
  f(r.lsq_addrbuf_nj);
  f(r.lsq_bus_nj);
  f(r.dcache_energy_nj);
  f(r.dtlb_energy_nj);
  f(r.area_total);
  f(r.area_distrib);
  f(r.area_shared);
  f(r.area_addrbuf);
  f(r.shared_occupancy_mean);
  f(r.shared_occupancy_max);
  f(r.buffer_nonempty_frac);
  f(r.buffer_occupancy_mean);
  f(r.l1d_hits);
  f(r.l1d_misses);
  f(r.dtlb_hits);
  f(r.dtlb_misses);
  f(r.branch_mispredicts);
  f(r.branch_lookups);
  for (auto& v : r.ledgers.v) f(v);
}

void put(std::ostringstream& os, std::uint64_t v) { os << v << ' '; }

void put(std::ostringstream& os, double v) {
  // C99 hexfloat: exact round-trip through strtod, independent of
  // locale and precision settings.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf << ' ';
}

class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}
  bool read(std::uint64_t& v) {
    std::string t;
    if (!(in_ >> t) || t.empty()) return false;
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(t.c_str(), &end, 10);
    return errno == 0 && end == t.c_str() + t.size();
  }
  bool read(double& v) {
    std::string t;
    if (!(in_ >> t) || t.empty()) return false;
    char* end = nullptr;
    v = std::strtod(t.c_str(), &end);
    return end == t.c_str() + t.size();
  }
  bool exhausted() {
    std::string t;
    return !(in_ >> t);
  }

 private:
  std::istringstream in_;
};

}  // namespace

std::string serialize_sim_result(const SimResult& r) {
  std::ostringstream os;
  for_each_field(r, [&os](auto v) { put(os, v); });
  std::string s = os.str();
  if (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  TokenReader in(text);
  SimResult r;
  bool ok = true;
  for_each_field(r, [&](auto& v) { ok = ok && in.read(v); });
  if (!ok || !in.exhausted()) return false;
  out = r;
  return true;
}

}  // namespace samie::sim

#include "src/sim/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
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
  return CheckpointWriter(path, f);
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

void put_u64(std::ostringstream& os, std::uint64_t v) { os << v << ' '; }

void put_f64(std::ostringstream& os, double v) {
  // C99 hexfloat: exact round-trip through strtod, independent of
  // locale and precision settings.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf << ' ';
}

class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}
  bool u64(std::uint64_t& v) {
    std::string t;
    if (!(in_ >> t) || t.empty()) return false;
    char* end = nullptr;
    errno = 0;
    v = std::strtoull(t.c_str(), &end, 10);
    return errno == 0 && end == t.c_str() + t.size();
  }
  bool f64(double& v) {
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
  const core::CoreResult& c = r.core;
  put_u64(os, c.cycles);
  put_u64(os, c.committed);
  put_f64(os, c.ipc);
  put_u64(os, c.mispredict_squashes);
  put_u64(os, c.deadlock_flushes);
  put_u64(os, c.loads_executed);
  put_u64(os, c.stores_committed);
  put_u64(os, c.forwarded_loads);
  put_u64(os, c.partial_forward_waits);
  put_u64(os, c.agen_gated);
  put_u64(os, c.value_mismatches);
  put_u64(os, c.dcache_way_known);
  put_u64(os, c.dcache_full);
  put_u64(os, c.dtlb_accesses);
  put_u64(os, c.dtlb_cached);
  put_u64(os, c.quiescent_cycles_skipped);
  put_u64(os, c.fast_forwards);
  put_f64(os, r.lsq_energy_nj);
  put_f64(os, r.lsq_distrib_nj);
  put_f64(os, r.lsq_shared_nj);
  put_f64(os, r.lsq_addrbuf_nj);
  put_f64(os, r.lsq_bus_nj);
  put_f64(os, r.dcache_energy_nj);
  put_f64(os, r.dtlb_energy_nj);
  put_f64(os, r.area_total);
  put_f64(os, r.area_distrib);
  put_f64(os, r.area_shared);
  put_f64(os, r.area_addrbuf);
  put_f64(os, r.shared_occupancy_mean);
  put_u64(os, r.shared_occupancy_max);
  put_f64(os, r.buffer_nonempty_frac);
  put_f64(os, r.buffer_occupancy_mean);
  put_u64(os, r.l1d_hits);
  put_u64(os, r.l1d_misses);
  put_u64(os, r.dtlb_hits);
  put_u64(os, r.dtlb_misses);
  put_u64(os, r.branch_mispredicts);
  put_u64(os, r.branch_lookups);
  for (std::size_t i = 0; i < LedgerCounts::kCount; ++i) {
    put_u64(os, r.ledgers.v[i]);
  }
  std::string s = os.str();
  if (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  TokenReader in(text);
  SimResult r;
  core::CoreResult& c = r.core;
  const bool ok =
      in.u64(c.cycles) && in.u64(c.committed) && in.f64(c.ipc) &&
      in.u64(c.mispredict_squashes) && in.u64(c.deadlock_flushes) &&
      in.u64(c.loads_executed) && in.u64(c.stores_committed) &&
      in.u64(c.forwarded_loads) && in.u64(c.partial_forward_waits) &&
      in.u64(c.agen_gated) && in.u64(c.value_mismatches) &&
      in.u64(c.dcache_way_known) && in.u64(c.dcache_full) &&
      in.u64(c.dtlb_accesses) && in.u64(c.dtlb_cached) &&
      in.u64(c.quiescent_cycles_skipped) && in.u64(c.fast_forwards) &&
      in.f64(r.lsq_energy_nj) && in.f64(r.lsq_distrib_nj) &&
      in.f64(r.lsq_shared_nj) && in.f64(r.lsq_addrbuf_nj) &&
      in.f64(r.lsq_bus_nj) && in.f64(r.dcache_energy_nj) &&
      in.f64(r.dtlb_energy_nj) && in.f64(r.area_total) &&
      in.f64(r.area_distrib) && in.f64(r.area_shared) &&
      in.f64(r.area_addrbuf) && in.f64(r.shared_occupancy_mean) &&
      in.u64(r.shared_occupancy_max) && in.f64(r.buffer_nonempty_frac) &&
      in.f64(r.buffer_occupancy_mean) && in.u64(r.l1d_hits) &&
      in.u64(r.l1d_misses) && in.u64(r.dtlb_hits) && in.u64(r.dtlb_misses) &&
      in.u64(r.branch_mispredicts) && in.u64(r.branch_lookups);
  if (!ok) return false;
  for (std::size_t i = 0; i < LedgerCounts::kCount; ++i) {
    if (!in.u64(r.ledgers.v[i])) return false;
  }
  if (!in.exhausted()) return false;
  out = r;
  return true;
}

}  // namespace samie::sim

#include "src/sim/perf_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "src/sim/checkpoint.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace samie::sim {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void json_number(std::ostream& os, double v) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
}

[[nodiscard]] std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Binds a measurement journal to its configuration (same role as
/// sweep_fingerprint for sweeps): every knob that changes what is
/// measured, none that only changes how fast.
[[nodiscard]] std::uint64_t hotpath_fingerprint(
    const HotpathOptions& opt, const std::vector<LsqChoice>& lsqs,
    const std::vector<std::string>& programs) {
  std::ostringstream os;
  os << opt.instructions << '\x1f' << opt.seed << '\x1f' << opt.repeats
     << '\x1f' << opt.always_step << '\x1f' << opt.trace_dir << '\x1e';
  for (const LsqChoice l : lsqs) os << lsq_choice_name(l) << '\x1f';
  os << '\x1e';
  for (const auto& p : programs) os << p << '\x1f';
  const std::string s = os.str();
  return trace::fnv1a_64(s.data(), s.size());
}

/// Journal record payload for one (lsq, program) measurement:
///   lsq \t program \t best_wall \t walls (space-separated) \t SimResult
[[nodiscard]] std::string encode_measurement(const char* lsq_tag,
                                             const HotpathProgramResult& pr) {
  std::ostringstream os;
  os << lsq_tag << '\t' << pr.program << '\t' << hex_double(pr.best_wall_seconds)
     << '\t';
  for (std::size_t i = 0; i < pr.wall_all.size(); ++i) {
    if (i != 0) os << ' ';
    os << hex_double(pr.wall_all[i]);
  }
  os << '\t' << serialize_sim_result(pr.result);
  return os.str();
}

[[nodiscard]] bool decode_measurement(const std::string& payload,
                                      std::string& lsq_tag,
                                      HotpathProgramResult& pr) {
  std::vector<std::string> f;
  std::size_t at = 0;
  while (f.size() < 4) {
    const std::size_t tab = payload.find('\t', at);
    if (tab == std::string::npos) return false;
    f.push_back(payload.substr(at, tab - at));
    at = tab + 1;
  }
  lsq_tag = f[0];
  pr.program = f[1];
  char* end = nullptr;
  pr.best_wall_seconds = std::strtod(f[2].c_str(), &end);
  if (end != f[2].c_str() + f[2].size()) return false;
  pr.wall_all.clear();
  std::istringstream walls(f[3]);
  std::string w;
  while (walls >> w) {
    const double v = std::strtod(w.c_str(), &end);
    if (end != w.c_str() + w.size()) return false;
    pr.wall_all.push_back(v);
  }
  return parse_sim_result(payload.substr(at), pr.result);
}

}  // namespace

std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

HotpathReport run_hotpath_measurement(const HotpathOptions& opt) {
  HotpathReport report;
  report.instructions = opt.instructions;
  report.seed = opt.seed;
  report.repeats = opt.repeats == 0 ? 1 : opt.repeats;
  report.no_skip = opt.always_step;

  const std::vector<LsqChoice> lsqs =
      opt.lsqs.empty()
          ? std::vector<LsqChoice>{LsqChoice::kConventional, LsqChoice::kArb,
                                   LsqChoice::kSamie}
          : opt.lsqs;

  // Workloads stream: a generated trace is materialized right before
  // its timed repeats (outside the timed region — allocation and RNG
  // never land in a wall measurement) and freed right after, and a
  // canned trace is opened and released the same way, so the suite's
  // peak RSS tracks one trace at a time instead of all 26 — the probe
  // the per-consumer TraceCache release discipline is measured against.
  // For canned traces the verification at open reads every record (v2
  // decodes its blocks, v1 checksums the mapping), so the timed replay
  // never waits on the disk.
  std::vector<std::string> trace_files;
  std::vector<std::string> programs;
  if (!opt.trace_dir.empty()) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(opt.trace_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".samt") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      // An empty report would read as "no baseline" downstream and
      // silently disable perf-regression gating — refuse instead.
      throw trace::TraceFormatError("no *.samt traces under '" +
                                    opt.trace_dir + "'");
    }
    std::uint64_t common_count = 0;
    bool uniform = true;
    for (const auto& f : files) {
      trace_files.push_back(f.string());
      const trace::SamtHeader h = trace::read_samt_header(f.string());
      const std::size_t len = ::strnlen(h.name, sizeof h.name);
      programs.push_back(len > 0 ? std::string(h.name, len)
                                 : f.stem().string());
      if (common_count == 0) common_count = h.count;
      uniform = uniform && h.count == common_count;
    }
    // opt.instructions is unused in replay mode; report the real
    // per-program trace length (0 when the traces differ in length —
    // the per-program "committed" fields then carry the truth).
    report.instructions = uniform ? common_count : 0;
  } else {
    programs = opt.programs.empty() ? trace::spec2000_names() : opt.programs;
  }

  // Resume journal: load finished (lsq, program) measurements — walls
  // included, so a resumed report is byte-identical to the partial run
  // it continues — and append new ones as they complete.
  std::map<std::string, HotpathProgramResult> resumed;
  std::optional<CheckpointWriter> journal;
  if (!opt.resume_path.empty()) {
    const std::uint64_t fp = hotpath_fingerprint(opt, lsqs, programs);
    if (std::filesystem::exists(opt.resume_path)) {
      CheckpointContents c = load_checkpoint(opt.resume_path);
      if (c.njobs != lsqs.size() * programs.size() || c.fingerprint != fp) {
        throw CheckpointError(
            opt.resume_path +
            ": journal belongs to a different measurement configuration — "
            "delete it or fix the command line");
      }
      for (const std::string& payload : c.records) {
        std::string lsq_tag;
        HotpathProgramResult pr;
        if (decode_measurement(payload, lsq_tag, pr)) {
          resumed.emplace(lsq_tag + '\t' + pr.program, std::move(pr));
        }
      }
      journal = CheckpointWriter::append_to(opt.resume_path);
    } else {
      journal = CheckpointWriter::create(
          opt.resume_path, lsqs.size() * programs.size(), fp);
    }
  }

  for (const LsqChoice lsq : lsqs) {
    HotpathLsqResult lr;
    lr.lsq = lsq;
    SimConfig cfg = paper_config(lsq);
    cfg.instructions = opt.instructions;
    cfg.seed = opt.seed;
    cfg.core.always_step = opt.always_step;

    for (std::size_t i = 0; i < programs.size(); ++i) {
      if (auto it = resumed.find(std::string(lsq_choice_name(lsq)) + '\t' +
                                 programs[i]);
          it != resumed.end()) {
        HotpathProgramResult pr = std::move(it->second);
        lr.total_sim_cycles += pr.result.core.cycles;
        lr.total_skipped_cycles += pr.result.core.quiescent_cycles_skipped;
        lr.total_wall_seconds += pr.best_wall_seconds;
        lr.programs.push_back(std::move(pr));
        ++report.resumed;
        continue;
      }
      HotpathProgramResult pr;
      pr.program = programs[i];
      pr.best_wall_seconds = std::numeric_limits<double>::infinity();
      pr.wall_all.reserve(report.repeats);
      try {
        std::optional<trace::TraceSource> source;
        trace::TraceView view;
        if (opt.trace_dir.empty()) {
          source.emplace(trace::TraceSource::generate(
              trace::spec2000_profile(programs[i]), opt.seed,
              opt.instructions));
          view = source->view();
          cfg.instructions = opt.instructions;
        } else {
          source.emplace(trace::TraceSource::open_samt(trace_files[i]));
          view = source->view();
          cfg.instructions = static_cast<std::uint64_t>(source->size());
        }
        for (std::uint32_t r = 0; r < report.repeats; ++r) {
          const auto t0 = Clock::now();
          SimResult res = run_simulation(cfg, view);
          const double wall = seconds_since(t0);
          pr.wall_all.push_back(wall);
          // Min-of-repeats, never sum/mean: intermittent host noise only
          // ever adds time, so the minimum is the robust estimate (see
          // docs/BENCH_hotpath.md).
          if (wall < pr.best_wall_seconds) pr.best_wall_seconds = wall;
          if (r == 0) pr.result = std::move(res);
        }
      } catch (const std::exception& e) {
        // One bad measurement (say, a corrupt trace in the sweep
        // directory) is reported and excluded; the rest still measure.
        report.failures.push_back("lsq=" + std::string(lsq_choice_name(lsq)) +
                                  " program=" + programs[i] +
                                  " error=" + e.what());
        continue;
      }
      if (journal) {
        journal->append_record(encode_measurement(lsq_choice_name(lsq), pr));
      }
      lr.total_sim_cycles += pr.result.core.cycles;
      lr.total_skipped_cycles += pr.result.core.quiescent_cycles_skipped;
      lr.total_wall_seconds += pr.best_wall_seconds;
      lr.programs.push_back(std::move(pr));
    }
    lr.sim_cycles_per_second =
        lr.total_wall_seconds > 0.0
            ? static_cast<double>(lr.total_sim_cycles) / lr.total_wall_seconds
            : 0.0;

    lr.peak_rss_kb = peak_rss_kb();
    report.lsqs.push_back(std::move(lr));
  }
  return report;
}

void write_hotpath_json(std::ostream& os, const HotpathReport& report) {
  os << "{\n";
  os << "  \"schema\": \"samie-bench-hotpath-v3\",\n";
  os << "  \"instructions\": " << report.instructions << ",\n";
  os << "  \"seed\": " << report.seed << ",\n";
  os << "  \"repeats\": " << report.repeats << ",\n";
  os << "  \"no_skip\": " << (report.no_skip ? "true" : "false") << ",\n";
  // Additive to schema v1: measurements that threw (absent from their
  // LSQ's programs/totals). Always emitted so a resumed report stays
  // byte-identical to the uninterrupted one.
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"';
    for (const char ch : report.failures[i]) {
      if (ch == '"' || ch == '\\') os << '\\';
      os << ch;
    }
    os << '"';
  }
  os << "],\n";
  os << "  \"lsqs\": {\n";
  for (std::size_t li = 0; li < report.lsqs.size(); ++li) {
    const HotpathLsqResult& lr = report.lsqs[li];
    os << "    \"" << lsq_choice_name(lr.lsq) << "\": {\n";
    os << "      \"total_sim_cycles\": " << lr.total_sim_cycles << ",\n";
    os << "      \"total_skipped_cycles\": " << lr.total_skipped_cycles
       << ",\n";
    os << "      \"total_wall_seconds\": ";
    json_number(os, lr.total_wall_seconds);
    os << ",\n      \"sim_cycles_per_second\": ";
    json_number(os, lr.sim_cycles_per_second);
    os << ",\n      \"peak_rss_kb\": " << lr.peak_rss_kb << ",\n";
    os << "      \"programs\": [\n";
    for (std::size_t pi = 0; pi < lr.programs.size(); ++pi) {
      const HotpathProgramResult& pr = lr.programs[pi];
      const SimResult& s = pr.result;
      os << "        {\"program\": \"" << pr.program << "\""
         << ", \"cycles\": " << s.core.cycles
         << ", \"committed\": " << s.core.committed << ", \"ipc\": ";
      json_number(os, s.core.ipc);
      os << ", \"wall_seconds\": ";
      json_number(os, pr.best_wall_seconds);
      os << ", \"wall_all\": [";
      for (std::size_t wi = 0; wi < pr.wall_all.size(); ++wi) {
        if (wi != 0) os << ", ";
        json_number(os, pr.wall_all[wi]);
      }
      os << "]";
      // Engine metrics (like wall_seconds, excluded from bit-identity
      // diffs): quiescent cycles fast-forwarded and their share. Under
      // --no-skip both are exact literal zeros, never a stale or
      // divide-by-zero artefact.
      os << ", \"skipped_cycles\": " << s.core.quiescent_cycles_skipped
         << ", \"skip_ratio\": ";
      if (report.no_skip) {
        os << 0;
      } else {
        json_number(os,
                    skip_fraction(s.core.quiescent_cycles_skipped,
                                  s.core.cycles));
      }
      os << ", \"mispredict_squashes\": " << s.core.mispredict_squashes
         << ", \"deadlock_flushes\": " << s.core.deadlock_flushes
         << ", \"forwarded_loads\": " << s.core.forwarded_loads
         << ", \"value_mismatches\": " << s.core.value_mismatches
         << ", \"lsq_energy_nj\": ";
      json_number(os, s.lsq_energy_nj);
      os << ", \"dcache_energy_nj\": ";
      json_number(os, s.dcache_energy_nj);
      os << ", \"dtlb_energy_nj\": ";
      json_number(os, s.dtlb_energy_nj);
      os << ", \"area_total\": ";
      json_number(os, s.area_total);
      os << ", \"shared_occupancy_mean\": ";
      json_number(os, s.shared_occupancy_mean);
      os << ", \"buffer_nonempty_frac\": ";
      json_number(os, s.buffer_nonempty_frac);
      os << "}" << (pi + 1 < lr.programs.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (li + 1 < report.lsqs.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
}

std::vector<TrajectoryEntry> parse_hotpath_trajectory(
    const std::string& json_text) {
  std::vector<TrajectoryEntry> out;
  const std::size_t entries = json_text.find("\"entries\"");
  if (entries == std::string::npos) return out;
  std::size_t at = json_text.find('[', entries);
  if (at == std::string::npos) return out;
  // Entry objects are flat, so the first ']' closes the array; bound the
  // object scan to it — a sibling key after "entries" must not be read
  // as a phantom entry (same bounding rule as the lsq-tag search below).
  const std::size_t array_end = json_text.find(']', at);
  if (array_end == std::string::npos) return out;
  // Each entry is one flat {...} object; scan them in order.
  for (;;) {
    const std::size_t open = json_text.find('{', at);
    if (open == std::string::npos || open > array_end) break;
    const std::size_t close = json_text.find('}', open);
    if (close == std::string::npos || close > array_end) break;
    const std::string obj = json_text.substr(open, close - open + 1);
    TrajectoryEntry e;
    const std::size_t lk = obj.find("\"label\"");
    if (lk != std::string::npos) {
      const std::size_t q1 = obj.find('"', obj.find(':', lk));
      const std::size_t q2 = q1 == std::string::npos
                                 ? std::string::npos
                                 : obj.find('"', q1 + 1);
      if (q2 != std::string::npos) e.label = obj.substr(q1 + 1, q2 - q1 - 1);
    }
    auto number = [&obj](const char* key) {
      const std::size_t k = obj.find(key);
      if (k == std::string::npos) return 0.0;
      return std::strtod(obj.c_str() + obj.find(':', k) + 1, nullptr);
    };
    e.conventional = number("\"conventional\"");
    e.arb = number("\"arb\"");
    e.samie = number("\"samie\"");
    out.push_back(std::move(e));
    at = close + 1;
    const std::size_t next = json_text.find_first_not_of(", \n\t", at);
    if (next == std::string::npos || json_text[next] == ']') break;
  }
  return out;
}

double hotpath_cycles_per_second_from_json(const std::string& json_text,
                                           const std::string& lsq_tag) {
  const std::string section = "\"" + lsq_tag + "\"";
  const std::size_t at = json_text.find(section);
  if (at == std::string::npos) return 0.0;
  // Bound the key search to this tag's own object: find its opening
  // brace, then the matching close. Without the bound, a section missing
  // the key would silently read the next section's value.
  const std::size_t open = json_text.find('{', at + section.size());
  if (open == std::string::npos) return 0.0;
  std::size_t end = open;
  for (int depth = 0; end < json_text.size(); ++end) {
    if (json_text[end] == '{') ++depth;
    else if (json_text[end] == '}' && --depth == 0) break;
  }
  const std::string key = "\"sim_cycles_per_second\":";
  const std::size_t k = json_text.find(key, open);
  if (k == std::string::npos || k >= end) return 0.0;
  return std::strtod(json_text.c_str() + k + key.size(), nullptr);
}

}  // namespace samie::sim

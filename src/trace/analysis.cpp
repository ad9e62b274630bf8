#include "src/trace/analysis.h"

#include <deque>
#include <unordered_map>

namespace samie::trace {

MixStats compute_mix(TraceView t) {
  MixStats m;
  m.count = t.size();
  if (t.size() == 0) return m;
  std::uint64_t loads = 0, stores = 0, branches = 0, fp = 0, intc = 0;
  for (const auto& op : t) {
    switch (op.op) {
      case OpClass::kLoad: ++loads; break;
      case OpClass::kStore: ++stores; break;
      case OpClass::kBranch: ++branches; break;
      case OpClass::kFpAlu:
      case OpClass::kFpMul:
      case OpClass::kFpDiv: ++fp; break;
      default: ++intc; break;
    }
  }
  const double n = static_cast<double>(t.size());
  m.load_frac = static_cast<double>(loads) / n;
  m.store_frac = static_cast<double>(stores) / n;
  m.branch_frac = static_cast<double>(branches) / n;
  m.fp_frac = static_cast<double>(fp) / n;
  m.int_compute_frac = static_cast<double>(intc) / n;
  return m;
}

SharingStats compute_sharing(TraceView t, std::size_t window,
                             std::uint32_t line_bytes) {
  SharingStats s;
  const Addr line_mask = ~static_cast<Addr>(line_bytes - 1);
  // Sliding window of the line addresses of in-window memory accesses.
  std::deque<Addr> in_window;
  std::unordered_map<Addr, std::uint32_t> line_count;
  std::uint64_t reuse = 0;
  double accesses_per_line_acc = 0.0;
  std::uint64_t samples = 0;

  for (const auto& op : t) {
    if (!is_mem(op.op)) continue;
    const Addr line = op.addr & line_mask;
    if (auto it = line_count.find(line); it != line_count.end() && it->second > 0) {
      ++reuse;
    }
    in_window.push_back(line);
    ++line_count[line];
    ++s.mem_accesses;
    if (in_window.size() > window) {
      const Addr old = in_window.front();
      in_window.pop_front();
      auto it = line_count.find(old);
      if (--it->second == 0) line_count.erase(it);
    }
    // Sample the in-window sharing degree once per window-quantum to keep
    // the statistic cheap and unbiased.
    if (s.mem_accesses % (window / 2 + 1) == 0 && !line_count.empty()) {
      accesses_per_line_acc += static_cast<double>(in_window.size()) /
                               static_cast<double>(line_count.size());
      ++samples;
    }
  }
  s.reuse_fraction =
      s.mem_accesses ? static_cast<double>(reuse) / static_cast<double>(s.mem_accesses)
                     : 0.0;
  s.accesses_per_line = samples ? accesses_per_line_acc / static_cast<double>(samples)
                                : 0.0;
  return s;
}

BankSpreadStats compute_bank_spread(TraceView t, std::size_t window,
                                    std::uint32_t banks, std::uint32_t line_bytes) {
  BankSpreadStats b;
  const Addr line_shift = log2_floor(line_bytes);
  std::deque<Addr> in_window;
  std::unordered_map<Addr, std::uint32_t> line_count;
  double max_acc = 0.0, occ_acc = 0.0, distinct_acc = 0.0;
  std::uint64_t samples = 0;
  std::vector<std::uint32_t> per_bank(banks, 0);

  std::uint64_t mem_seen = 0;
  for (const auto& op : t) {
    if (!is_mem(op.op)) continue;
    const Addr line = op.addr >> line_shift;
    in_window.push_back(line);
    ++line_count[line];
    ++mem_seen;
    if (in_window.size() > window) {
      const Addr old = in_window.front();
      in_window.pop_front();
      auto it = line_count.find(old);
      if (--it->second == 0) line_count.erase(it);
    }
    if (mem_seen % (window / 2 + 1) == 0 && !line_count.empty()) {
      std::fill(per_bank.begin(), per_bank.end(), 0U);
      for (const auto& [l, cnt] : line_count) {
        ++per_bank[static_cast<std::size_t>(l % banks)];
      }
      std::uint32_t mx = 0, occupied = 0, distinct = 0;
      for (std::uint32_t c : per_bank) {
        mx = c > mx ? c : mx;
        occupied += c > 0 ? 1U : 0U;
        distinct += c;
      }
      max_acc += mx;
      occ_acc += occupied ? static_cast<double>(distinct) / occupied : 0.0;
      distinct_acc += distinct;
      ++samples;
    }
  }
  if (samples > 0) {
    const double n = static_cast<double>(samples);
    b.max_lines_per_bank = max_acc / n;
    b.mean_lines_per_occupied_bank = occ_acc / n;
    b.mean_distinct_lines = distinct_acc / n;
  }
  return b;
}

}  // namespace samie::trace

#include "src/sim/sim_config.h"

#include <cstdlib>
#include <thread>

namespace samie::sim {

const char* lsq_choice_name(LsqChoice c) noexcept {
  switch (c) {
    case LsqChoice::kConventional: return "conventional";
    case LsqChoice::kUnbounded: return "unbounded";
    case LsqChoice::kArb: return "arb";
    case LsqChoice::kSamie: return "samie";
  }
  return "?";
}

SimConfig paper_config(LsqChoice lsq) {
  SimConfig cfg;  // struct defaults already encode Tables 2 and 3
  cfg.lsq = lsq;
  // The SAMIE invalidation protocol needs the L1D set count.
  cfg.samie.l1d_sets = static_cast<std::uint32_t>(cfg.memory.l1d.sets());
  return cfg;
}

std::uint64_t bench_instructions(std::uint64_t fallback) {
  if (const char* env = std::getenv("SAMIE_BENCH_INSTS"); env != nullptr) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

unsigned bench_threads() {
  if (const char* env = std::getenv("SAMIE_BENCH_THREADS"); env != nullptr) {
    const auto v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 4;
}

}  // namespace samie::sim

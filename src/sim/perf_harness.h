// The process peak-RSS probe of the benchmark harness: perfbench/harness.cpp
// includes this header by path and calls peak_rss_kb(). Nothing else may
// include it; it belongs in perfbench/, where a benchmark change can move
// it. perfbench measures every speed and memory figure of the simulator
// (perfbench/README.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace samie::sim {

/// Current process peak RSS (VmHWM) in kB; 0 when /proc is unavailable.
[[nodiscard]] inline std::uint64_t peak_rss_kb() {
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

}  // namespace samie::sim

// Test helper: capture everything a trace call throws (type, damage
// class, block, offset and message), so a test can compare two errors
// field for field or pin one exactly.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "src/trace/trace_io.h"

namespace samie::fixture {

/// Everything a caller can observe of what a call threw.
struct Thrown {
  std::string type = "nothing";
  trace::TraceDamage damage = trace::TraceDamage::kNone;
  std::uint64_t block = 0;
  std::uint64_t offset = 0;
  std::string what;

  bool operator==(const Thrown&) const = default;
};

inline void PrintTo(const Thrown& t, std::ostream* os) {
  *os << t.type << " damage=" << trace::trace_damage_name(t.damage)
      << " block=" << t.block << " offset=" << t.offset << " what=" << t.what;
}

template <typename Fn>
[[nodiscard]] Thrown thrown_by(const Fn& fn) {
  try {
    (void)fn();
  } catch (const trace::TraceCorruptError& e) {
    return Thrown{"TraceCorruptError", e.damage, e.block, e.offset, e.what()};
  } catch (const trace::TraceFormatError& e) {
    return Thrown{"TraceFormatError", trace::TraceDamage::kNone, 0, 0,
                  e.what()};
  }
  return Thrown{};
}

}  // namespace samie::fixture

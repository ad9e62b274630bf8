// Shared command-line helpers for the tools (samie_sim, samt_convert).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

namespace samie::tools {

/// Parses all of `digits` as a decimal number no greater than `max` into
/// `out`. Returns false, leaving `out` alone, when `digits` is empty, does
/// not start with a digit (strtoull alone takes " 1" and "-1"), has
/// characters after the number ("1e5") or exceeds `max`.
[[nodiscard]] inline bool parse_decimal(const char* digits, std::uint64_t max,
                                        std::uint64_t& out) {
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(digits, &end, 10);
  if (*end != '\0' || errno == ERANGE || v > max) return false;
  out = v;
  return true;
}

/// Parses `--key=N` into `out`. Returns false when `arg` is a different
/// option. On a matching key whose value is not a decimal number no
/// greater than `max` (an option stored in 32 bits passes its field's
/// maximum), calls `fail(message)` — which is expected not to return.
template <typename FailFn>
bool parse_u64(const std::string& arg, const char* key, std::uint64_t& out,
               FailFn&& fail,
               std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* digits = arg.c_str() + prefix.size();
  if (!parse_decimal(digits, max, out)) {
    std::string want = "an unsigned integer";
    if (max != std::numeric_limits<std::uint64_t>::max()) {
      want += " no greater than " + std::to_string(max);
    }
    std::forward<FailFn>(fail)("value of " + std::string(key) + " must be " +
                               want + ", got '" + digits + "'");
  }
  return true;
}

}  // namespace samie::tools

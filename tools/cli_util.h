// Shared command-line helpers for the tools (samie_sim, samt_convert).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

namespace samie::tools {

/// Parses `--key=N` into `out`. Returns false when `arg` is a different
/// option. On a matching key whose value is empty, partially numeric
/// ("--insts=1e5" used to silently parse as 1) or out of range, calls
/// `fail(message)` — which is expected not to return.
template <typename FailFn>
bool parse_u64(const std::string& arg, const char* key, std::uint64_t& out,
               FailFn&& fail) {
  const std::string prefix = std::string(key) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* digits = arg.c_str() + prefix.size();
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0' || errno == ERANGE) {
    std::forward<FailFn>(fail)("value of " + std::string(key) +
                               " must be an unsigned integer, got '" + digits +
                               "'");
  }
  out = v;
  return true;
}

}  // namespace samie::tools

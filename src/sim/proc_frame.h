// The crash-forensics wire record between an isolated child and its
// parent supervisor (src/sim/process_executor.h).
//
// CrashWire is the fixed-size binary record the child's async-signal-
// safe crash handler writes to its pre-opened crash pipe: plain stores
// and one write(2), nothing that allocates — which is why it is binary
// while everything else the child sends is a guarded text line
// (src/sim/checkpoint.h).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

namespace samie::sim {

inline constexpr int kCrashMaxFrames = 32;
inline constexpr std::uint64_t kCrashMagic = 0x48535243494d4153ULL;  // "SAMICRSH"

/// Written whole from the signal handler with a single write(2): the
/// record is well under PIPE_BUF, so the write is atomic.
struct CrashWire {
  std::uint64_t magic = kCrashMagic;
  std::int32_t signal = 0;
  std::int32_t nframes = 0;
  std::uint64_t fault_addr = 0;
  std::uint64_t frames[kCrashMaxFrames] = {};
};
static_assert(std::is_trivially_copyable_v<CrashWire>);

[[nodiscard]] inline std::optional<CrashWire> decode_crash_wire(
    const std::string& bytes) {
  if (bytes.size() < sizeof(CrashWire)) return std::nullopt;
  CrashWire w;
  std::memcpy(&w, bytes.data(), sizeof w);
  if (w.magic != kCrashMagic) return std::nullopt;
  if (w.nframes < 0) w.nframes = 0;
  if (w.nframes > kCrashMaxFrames) w.nframes = kCrashMaxFrames;
  return w;
}

}  // namespace samie::sim

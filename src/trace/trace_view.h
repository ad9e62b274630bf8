// TraceView: a non-owning (pointer, length) window over flat MicroOps.
//
// A Trace, a SAMT reader's output and TraceSource::view() all convert to
// a TraceView, and the analysis functions, the writers and the
// flat-array simulation entry points read through one. The view is two
// words, passed by value. The core reads through a TraceWindow
// (trace_window.h), which wraps a TraceView or decodes a TraceSource's
// blocks on demand.
#pragma once

#include <cstddef>

#include "src/trace/instruction.h"

namespace samie::trace {

class TraceView {
 public:
  constexpr TraceView() noexcept = default;
  constexpr TraceView(const MicroOp* data, std::size_t count) noexcept
      : data_(data), count_(count) {}
  /// Implicit on purpose: every `run_simulation(cfg, trace)` /
  /// `Core(cfg, trace, ...)` call site keeps compiling unchanged.
  constexpr TraceView(const Trace& t) noexcept  // NOLINT(google-explicit-constructor)
      : data_(t.ops.data()), count_(t.ops.size()) {}

  [[nodiscard]] constexpr std::size_t size() const noexcept { return count_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] constexpr const MicroOp* data() const noexcept { return data_; }
  [[nodiscard]] constexpr const MicroOp& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] constexpr const MicroOp* begin() const noexcept { return data_; }
  [[nodiscard]] constexpr const MicroOp* end() const noexcept {
    return data_ + count_;
  }

 private:
  const MicroOp* data_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace samie::trace

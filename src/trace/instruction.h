// The dynamic instruction (micro-op) record the simulator consumes.
//
// Traces are fully materialized, immutable vectors of MicroOp. A MicroOp
// carries everything the timing model needs (operands, class, address) and
// everything the *correctness* checks need (store values and the
// program-order-correct expected value of every load, precomputed by the
// generator's oracle memory).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace samie::trace {

enum class OpClass : std::uint8_t {
  kIntAlu,
  kIntMul,
  kIntDiv,
  kFpAlu,
  kFpMul,
  kFpDiv,
  kLoad,
  kStore,
  kBranch,
  kNop,
};

[[nodiscard]] constexpr bool is_mem(OpClass op) noexcept {
  return op == OpClass::kLoad || op == OpClass::kStore;
}
[[nodiscard]] constexpr bool is_fp(OpClass op) noexcept {
  return op == OpClass::kFpAlu || op == OpClass::kFpMul || op == OpClass::kFpDiv;
}
[[nodiscard]] const char* op_class_name(OpClass op) noexcept;

/// One dynamic instruction. Compact POD: traces hold hundreds of
/// thousands of these and are shared read-only across worker threads.
struct MicroOp {
  Addr pc = 0;
  /// Effective address (loads/stores only).
  Addr mem_addr = 0;
  /// Branch target (branches only).
  Addr br_target = 0;
  /// Stores: the value written. Loads: the program-order-correct value the
  /// load must observe (oracle value, used by tests).
  std::uint64_t value = 0;
  OpClass op = OpClass::kNop;
  /// Access size in bytes (loads/stores): 4 or 8, naturally aligned.
  std::uint8_t mem_size = 0;
  RegId src1 = kNoReg;
  RegId src2 = kNoReg;
  RegId dst = kNoReg;
  /// Branches: actual direction.
  bool taken = false;
  /// The two bytes that would otherwise be padding, made a real
  /// zero-initialized field: every byte of a record then has a defined
  /// value, so records compare with memcmp and serialize byte-stably.
  std::uint8_t pad_[2] = {0, 0};
};

static_assert(sizeof(MicroOp) <= 48, "MicroOp should stay compact");

/// An immutable dynamic instruction stream plus its provenance.
struct Trace {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<MicroOp> ops;

  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
  [[nodiscard]] const MicroOp& operator[](std::size_t i) const noexcept {
    return ops[i];
  }
};

}  // namespace samie::trace

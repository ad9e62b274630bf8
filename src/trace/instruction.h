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

/// One dynamic instruction, 32 bytes. Compact POD: traces hold hundreds
/// of thousands of these and are shared read-only across worker threads.
struct MicroOp {
  Addr pc = 0;
  /// Loads and stores: the effective address. Branches: the target.
  /// 0 for every other class.
  Addr addr = 0;
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
  /// value, so records compare with memcmp.
  std::uint8_t pad_[2] = {0, 0};
};

// The in-memory record is not an on-disk layout: SAMT v1 records are
// converted as they are read, and v2 encodes fields. Every SAMT header
// carries kSamtRecordBytes (trace_io.h), whatever this size is.
static_assert(sizeof(MicroOp) == 32, "one record is four 8-byte words");

/// The record domain: the records the timing model can simulate. A
/// record is inside it when its op class is a known OpClass; src1, src2
/// and dst each name an architectural register (below kNumArchRegs) or
/// are kNoReg; and a load or store accesses 4 or 8 bytes at an address
/// that is a multiple of its size. Generated traces are inside it by
/// construction; trace files are checked where they enter
/// (TraceSource::open_samt, which also rejects the v1 records no MicroOp
/// can hold), and the text importer checks every line. Returns nullptr
/// for a record inside the domain, else the first rule the record breaks.
[[nodiscard]] inline const char* record_domain_violation(
    const MicroOp& op) noexcept {
  if (static_cast<std::uint8_t>(op.op) >
      static_cast<std::uint8_t>(OpClass::kNop)) {
    return "op class out of range";
  }
  for (const RegId r : {op.src1, op.src2, op.dst}) {
    if (r != kNoReg && r >= kNumArchRegs) return "register out of range";
  }
  if (is_mem(op.op)) {
    if (op.mem_size != 4 && op.mem_size != 8) {
      return "access size must be 4 or 8";
    }
    if (op.addr % op.mem_size != 0) {
      return "address is not naturally aligned";
    }
  }
  return nullptr;
}

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

// The dynamic instruction (micro-op) record the simulator consumes.
//
// Traces are fully materialized, immutable vectors of MicroOp. A MicroOp
// carries everything the timing model needs (operands, class, address) and
// everything the *correctness* checks need (store values and the
// program-order-correct expected value of every load, precomputed by the
// generator's oracle memory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
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

// The record size is part of the SAMT v2 header binding: every v2
// reader rejects a file whose `record_bytes` differs from
// sizeof(MicroOp), so resizing this struct makes every existing v2 file
// unopenable, even though the v2 codec encodes fields, not bytes. Decide
// what `record_bytes` binds (docs/TRACE_FORMAT.md) before resizing it.
static_assert(sizeof(MicroOp) == 40,
              "SAMT v2 headers bind record_bytes to sizeof(MicroOp)");

/// The record domain: the records the timing model can simulate. A
/// record is inside it when its op class is a known OpClass; src1, src2
/// and dst each name an architectural register (below kNumArchRegs) or
/// are kNoReg; a load or store accesses 4 or 8 bytes at an address that
/// is a multiple of its size; and its `taken` byte is 0 or 1. Generated
/// traces are inside it by construction; trace files are checked where
/// they enter (TraceSource::open_samt and read_samt), and the text
/// importer checks every line. Returns nullptr for a record inside the
/// domain, else the first rule the record breaks.
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
    if (op.mem_addr % op.mem_size != 0) {
      return "address is not naturally aligned";
    }
  }
  // A v1 record is the file's bytes, so `taken` can hold any byte; read
  // it raw, since loading a bool that holds neither 0 nor 1 is undefined.
  unsigned char taken = 0;
  std::memcpy(&taken,
              reinterpret_cast<const unsigned char*>(&op) +
                  offsetof(MicroOp, taken),
              1);
  return taken > 1 ? "taken flag must be 0 or 1" : nullptr;
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

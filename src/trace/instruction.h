// The dynamic instruction (micro-op) record the simulator consumes.
//
// A MicroOp carries everything the timing model needs (operands, class,
// address) and everything the *correctness* checks need (store values and
// the program-order-correct expected value of every load, precomputed by
// the generator's oracle memory). A resident trace is held encoded, as
// its SAMT v2 blocks (TraceSource); a lane decodes records into a small
// ring as fetch reaches them (TraceWindow), and a flat array of records
// (Trace, TraceView) serves tools, tests and hand-built traces.
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

// The in-memory record is not an on-disk layout: SAMT encodes fields,
// and every SAMT header carries kSamtRecordBytes (trace_io.h), whatever
// this size is.
static_assert(sizeof(MicroOp) == 32, "one record is four 8-byte words");

/// record_domain_violation over a record's fields, for a reader that
/// judges encoded bytes without building a MicroOp: `op` is the class
/// byte, and only the low three bits of `addr` matter.
[[nodiscard]] inline const char* record_fields_violation(
    std::uint8_t op, std::uint8_t mem_size, RegId src1, RegId src2, RegId dst,
    Addr addr) noexcept {
  // Every rule is evaluated, with bitwise rather than short-circuit
  // operators, so a reader judging records of every class branches only
  // on a rule being broken.
  const auto bad_reg = [](RegId r) {
    return (r != kNoReg) & (r >= kNumArchRegs);
  };
  const bool mem = is_mem(static_cast<OpClass>(op));
  const bool bad_size = (mem_size != 4) & (mem_size != 8);
  // addr % mem_size != 0, for the sizes 4 and 8 that reach that rule.
  const bool misaligned = (addr & (mem_size - 1U)) != 0;
  if (op > static_cast<std::uint8_t>(OpClass::kNop)) {
    return "op class out of range";
  }
  if (bad_reg(src1) | bad_reg(src2) | bad_reg(dst)) {
    return "register out of range";
  }
  if (mem & bad_size) return "access size must be 4 or 8";
  if (mem & misaligned) return "address is not naturally aligned";
  return nullptr;
}

/// The record domain: the records the timing model can simulate. A
/// record is inside it when its op class is a known OpClass; src1, src2
/// and dst each name an architectural register (below kNumArchRegs) or
/// are kNoReg; and a load or store accesses 4 or 8 bytes at an address
/// that is a multiple of its size. Generated traces are inside it by
/// construction; trace files are checked where they enter
/// (TraceSource::open_samt), and the text importer checks every line.
/// Returns nullptr for a record inside the domain, else the first rule
/// the record breaks.
[[nodiscard]] inline const char* record_domain_violation(
    const MicroOp& op) noexcept {
  return record_fields_violation(static_cast<std::uint8_t>(op.op),
                                 op.mem_size, op.src1, op.src2, op.dst,
                                 op.addr);
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

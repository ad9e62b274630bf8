#include "src/trace/workload.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace samie::trace {

namespace {
constexpr std::uint32_t kLineBytes = 32;
}  // namespace

const char* op_class_name(OpClass op) noexcept {
  switch (op) {
    case OpClass::kIntAlu: return "int_alu";
    case OpClass::kIntMul: return "int_mul";
    case OpClass::kIntDiv: return "int_div";
    case OpClass::kFpAlu: return "fp_alu";
    case OpClass::kFpMul: return "fp_mul";
    case OpClass::kFpDiv: return "fp_div";
    case OpClass::kLoad: return "load";
    case OpClass::kStore: return "store";
    case OpClass::kBranch: return "branch";
    case OpClass::kNop: return "nop";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(const WorkloadProfile& profile,
                                     std::uint64_t seed)
    : profile_(profile), rng_(derive_seed(seed, 0x7ace)) {
  streams_.resize(profile_.streams.size());
  double total = 0.0;
  for (const auto& s : profile_.streams) {
    if (s.access_bytes != 4 && s.access_bytes != 8) {
      throw std::invalid_argument(
          "profile '" + profile_.name +
          "': stream access_bytes must be 4 or 8, got " +
          std::to_string(s.access_bytes));
    }
    total += s.weight;
  }
  double acc = 0.0;
  for (const auto& s : profile_.streams) {
    acc += s.weight / (total > 0.0 ? total : 1.0);
    stream_cdf_.push_back(acc);
  }
  mem_frac_ = profile_.load_frac + profile_.store_frac;
  load_share_ = profile_.load_frac / (mem_frac_ > 0.0 ? mem_frac_ : 1.0);
  if (profile_.dep_mean > 1.0) {
    dep_threshold_ = Xoshiro256::chance_threshold(1.0 / profile_.dep_mean);
  }
  recent_int_.regs.fill(RegId{1});
  recent_fp_.regs.fill(RegId{kNumIntRegs});
  // Decorrelate stream starting points.
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    streams_[i].cursor_line = rng_.below(
        std::max<std::uint64_t>(1, profile_.streams[i].footprint_lines));
  }
}

[[gnu::always_inline]] inline Addr WorkloadGenerator::next_mem_addr(
    Xoshiro256& rng, std::size_t stream_idx, std::uint32_t bytes) {
  const StreamComponent& sc = profile_.streams[stream_idx];
  StreamState& st = streams_[stream_idx];
  const std::uint64_t footprint = std::max<std::uint64_t>(1, sc.footprint_lines);

  if (st.line_left == 0) {
    // Advance the walk to the next line.
    if (sc.jump_p > 0.0 && rng.chance(sc.jump_p)) {
      st.cursor_line = rng.below(footprint);
    } else if (++st.cursor_line == footprint) {
      st.cursor_line = 0;
    }
    st.line_left = std::max<std::uint32_t>(1, sc.accesses_per_line);
    st.offset = 0;
  }
  --st.line_left;

  // Walk step k touches byte address base + k*line_stride; the footprint
  // wraps in *line-index* space so the region stays bounded while the
  // stride pattern (and hence the bank mapping) is preserved.
  const Addr line_base =
      stream_region_base(stream_idx) + st.cursor_line * sc.line_stride_bytes;
  const Addr line_aligned = line_base & ~static_cast<Addr>(kLineBytes - 1);

  Addr addr = line_aligned + st.offset;
  st.offset += bytes;
  if (st.offset + bytes > kLineBytes) st.offset = 0;
  return addr & ~static_cast<Addr>(bytes - 1);
}

[[gnu::always_inline]] inline RegId WorkloadGenerator::pick_source(
    Xoshiro256& rng, bool fp) {
  const RecentRing& ring = fp ? recent_fp_ : recent_int_;
  // rng.geometric(profile_.dep_mean), without its per-call division.
  const std::uint64_t dist =
      profile_.dep_mean > 1.0 ? rng.geometric_below(dep_threshold_) : 1;
  return ring.regs[(ring.head + dist - 1) % RecentRing::kSize];
}

[[gnu::always_inline]] inline RegId WorkloadGenerator::pick_dest(
    Xoshiro256& rng, bool fp) {
  // Avoid register 0 (hardwired zero in most ISAs) for realism.
  const RegId base = fp ? static_cast<RegId>(kNumIntRegs) : RegId{0};
  const RegId r = static_cast<RegId>(base + 1 + rng.below(kNumIntRegs - 1));
  RecentRing& ring = fp ? recent_fp_ : recent_int_;
  ring.head = (ring.head + RecentRing::kSize - 1) % RecentRing::kSize;
  ring.regs[ring.head] = r;
  return r;
}

[[gnu::always_inline]] inline void WorkloadGenerator::next_op(
    Xoshiro256& rng, MicroOp* __restrict op) {
  const Addr pc = pc_;

  // Loop bookkeeping: when inside a loop body, count down to the closing
  // branch; the closing branch is taken while iterations remain.
  const bool at_loop_end = loop_body_len_ > 0 && loop_body_left_ == 0;
  if (at_loop_end) {
    // Loop-closing branch: tests the induction variable, which is ready
    // early in real codes — no deep data dependency.
    const bool taken = loop_iters_left_ > 1;
    if (taken) {
      --loop_iters_left_;
      loop_body_left_ = loop_body_len_;
      pc_ = loop_start_pc_;
    } else {
      loop_body_len_ = 0;
      pc_ += 4;
    }
    *op = MicroOp{.pc = pc,
                  .addr = loop_start_pc_,
                  .op = OpClass::kBranch,
                  .taken = taken};
    return;
  }

  if (loop_body_len_ == 0) {
    // Start a fresh loop nest.
    loop_body_len_ = std::max<std::uint64_t>(4, rng.geometric(profile_.avg_loop_body));
    loop_iters_left_ = std::max<std::uint64_t>(1, rng.geometric(profile_.avg_loop_iters));
    loop_start_pc_ = pc;
    loop_body_left_ = loop_body_len_;
  }
  --loop_body_left_;
  pc_ = pc + 4;

  const double roll = rng.uniform();

  if (roll < mem_frac_ && !profile_.streams.empty()) {
    const bool is_load = rng.uniform() < load_share_;
    const double pick = rng.uniform();
    std::size_t si = 0;
    while (si + 1 < stream_cdf_.size() && pick > stream_cdf_[si]) ++si;
    const std::uint32_t bytes = profile_.streams[si].access_bytes;
    const Addr addr = next_mem_addr(rng, si, bytes);
    // Address base register: early-ready induction variable unless this
    // profile chases pointers.
    const RegId base =
        rng.chance(profile_.addr_dep_p) ? pick_source(rng, false) : kNoReg;
    if (is_load) {
      const RegId dst = pick_dest(rng, false);
      *op = MicroOp{.pc = pc,
                    .addr = addr,
                    .value = oracle_.read(addr, bytes),
                    .op = OpClass::kLoad,
                    .mem_size = static_cast<std::uint8_t>(bytes),
                    .src1 = base,
                    .dst = dst};
    } else {
      const RegId data = pick_source(rng, false);
      const std::uint64_t value = rng();
      oracle_.write(addr, bytes, value);
      *op = MicroOp{.pc = pc,
                    .addr = addr,
                    .value = value,
                    .op = OpClass::kStore,
                    .mem_size = static_cast<std::uint8_t>(bytes),
                    .src1 = base,
                    .src2 = data};
    }
  } else if (roll < mem_frac_ + profile_.branch_frac) {
    // Data-dependent branch (entropy) or a forward, mostly-not-taken one.
    // Direction bits train the predictor; the trace's PC flow stays linear
    // so loop-branch PCs remain stable across iterations (trace-driven
    // convention: the fetch unit follows the trace and charges redirects /
    // squashes based on predicted-vs-actual direction).
    const RegId src = pick_source(rng, false);
    const bool taken = rng.chance(profile_.branch_entropy) ? rng.chance(0.5)
                                                           : rng.chance(0.08);
    *op = MicroOp{.pc = pc,
                  .addr = pc + 4 + 4 * (1 + (pc >> 2) % 16),
                  .op = OpClass::kBranch,
                  .src1 = src,
                  .taken = taken};
  } else {
    const bool fp = rng.chance(profile_.fp_frac);
    const double kind = rng.uniform();
    const OpClass cls =
        fp ? (kind < profile_.fp_div_frac ? OpClass::kFpDiv
              : kind < profile_.fp_div_frac + profile_.fp_mul_frac
                  ? OpClass::kFpMul
                  : OpClass::kFpAlu)
           : (kind < profile_.int_div_frac ? OpClass::kIntDiv
              : kind < profile_.int_div_frac + profile_.int_mul_frac
                  ? OpClass::kIntMul
                  : OpClass::kIntAlu);
    const RegId src1 = pick_source(rng, fp);
    const RegId src2 = pick_source(rng, fp);
    const RegId dst = pick_dest(rng, fp);
    *op = MicroOp{
        .pc = pc, .op = cls, .src1 = src1, .src2 = src2, .dst = dst};
  }
}

Trace WorkloadGenerator::generate(std::uint64_t n) {
  Trace t;
  t.name = profile_.name;
  t.seed = 0;  // provenance filled by callers that know the original seed
  // Appending, not resize-then-overwrite: value-initialising the buffer
  // first is a second pass over every record's memory.
  t.ops.reserve(n);
  Xoshiro256 rng = rng_;
  for (std::uint64_t i = 0; i < n; ++i) next_op(rng, &t.ops.emplace_back());
  rng_ = rng;
  return t;
}

void WorkloadGenerator::generate_into(MicroOp* out, std::uint64_t n) {
  Xoshiro256 rng = rng_;
  for (std::uint64_t i = 0; i < n; ++i) next_op(rng, out + i);
  rng_ = rng;
}

}  // namespace samie::trace

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

Addr WorkloadGenerator::next_mem_addr(std::size_t stream_idx, std::uint32_t bytes) {
  const StreamComponent& sc = profile_.streams[stream_idx];
  StreamState& st = streams_[stream_idx];
  const std::uint64_t footprint = std::max<std::uint64_t>(1, sc.footprint_lines);

  if (st.line_left == 0) {
    // Advance the walk to the next line.
    if (sc.jump_p > 0.0 && rng_.chance(sc.jump_p)) {
      st.cursor_line = rng_.below(footprint);
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

RegId WorkloadGenerator::pick_source(bool fp) {
  const RecentRing& ring = fp ? recent_fp_ : recent_int_;
  // rng_.geometric(profile_.dep_mean), without its per-call division.
  const std::uint64_t dist =
      profile_.dep_mean > 1.0 ? rng_.geometric_below(dep_threshold_) : 1;
  return ring.regs[(ring.head + dist - 1) % RecentRing::kSize];
}

RegId WorkloadGenerator::pick_dest(bool fp) {
  // Avoid register 0 (hardwired zero in most ISAs) for realism.
  const RegId base = fp ? static_cast<RegId>(kNumIntRegs) : RegId{0};
  const RegId r = static_cast<RegId>(base + 1 + rng_.below(kNumIntRegs - 1));
  RecentRing& ring = fp ? recent_fp_ : recent_int_;
  ring.head = (ring.head + RecentRing::kSize - 1) % RecentRing::kSize;
  ring.regs[ring.head] = r;
  return r;
}

void WorkloadGenerator::next_op(MicroOp& op) {
  op = MicroOp{};
  op.pc = pc_;

  // Loop bookkeeping: when inside a loop body, count down to the closing
  // branch; the closing branch is taken while iterations remain.
  const bool at_loop_end = loop_body_len_ > 0 && loop_body_left_ == 0;
  if (at_loop_end) {
    // Loop-closing branch: tests the induction variable, which is ready
    // early in real codes — no deep data dependency.
    op.op = OpClass::kBranch;
    op.addr = loop_start_pc_;
    if (loop_iters_left_ > 1) {
      --loop_iters_left_;
      loop_body_left_ = loop_body_len_;
      op.taken = true;
      pc_ = loop_start_pc_;
    } else {
      loop_body_len_ = 0;
      op.taken = false;
      pc_ += 4;
    }
    return;
  }

  if (loop_body_len_ == 0) {
    // Start a fresh loop nest.
    loop_body_len_ = std::max<std::uint64_t>(4, rng_.geometric(profile_.avg_loop_body));
    loop_iters_left_ = std::max<std::uint64_t>(1, rng_.geometric(profile_.avg_loop_iters));
    loop_start_pc_ = pc_;
    loop_body_left_ = loop_body_len_;
  }
  --loop_body_left_;

  const double roll = rng_.uniform();

  if (roll < mem_frac_ && !profile_.streams.empty()) {
    const bool is_load = rng_.uniform() < load_share_;
    const double pick = rng_.uniform();
    std::size_t si = 0;
    while (si + 1 < stream_cdf_.size() && pick > stream_cdf_[si]) ++si;
    const std::uint32_t bytes = profile_.streams[si].access_bytes;
    const Addr addr = next_mem_addr(si, bytes);
    op.addr = addr;
    op.mem_size = static_cast<std::uint8_t>(bytes);
    // Address base register: early-ready induction variable unless this
    // profile chases pointers.
    op.src1 = rng_.chance(profile_.addr_dep_p) ? pick_source(false) : kNoReg;
    if (is_load) {
      op.op = OpClass::kLoad;
      op.dst = pick_dest(false);
      op.value = oracle_.read(addr, bytes);
    } else {
      op.op = OpClass::kStore;
      op.src2 = pick_source(false);  // data register
      op.value = rng_();
      oracle_.write(addr, bytes, op.value);
    }
  } else if (roll < mem_frac_ + profile_.branch_frac) {
    // Data-dependent branch (entropy) or a forward, mostly-not-taken one.
    // Direction bits train the predictor; the trace's PC flow stays linear
    // so loop-branch PCs remain stable across iterations (trace-driven
    // convention: the fetch unit follows the trace and charges redirects /
    // squashes based on predicted-vs-actual direction).
    op.op = OpClass::kBranch;
    op.src1 = pick_source(false);
    op.addr = pc_ + 4 + 4 * (1 + (op.pc >> 2) % 16);
    if (rng_.chance(profile_.branch_entropy)) {
      op.taken = rng_.chance(0.5);
    } else {
      op.taken = rng_.chance(0.08);
    }
  } else {
    const bool fp = rng_.chance(profile_.fp_frac);
    double kind = rng_.uniform();
    if (fp) {
      if (kind < profile_.fp_div_frac) op.op = OpClass::kFpDiv;
      else if (kind < profile_.fp_div_frac + profile_.fp_mul_frac) op.op = OpClass::kFpMul;
      else op.op = OpClass::kFpAlu;
    } else {
      if (kind < profile_.int_div_frac) op.op = OpClass::kIntDiv;
      else if (kind < profile_.int_div_frac + profile_.int_mul_frac) op.op = OpClass::kIntMul;
      else op.op = OpClass::kIntAlu;
    }
    op.src1 = pick_source(fp);
    op.src2 = pick_source(fp);
    op.dst = pick_dest(fp);
  }

  pc_ += 4;
}

Trace WorkloadGenerator::generate(std::uint64_t n) {
  Trace t;
  t.name = profile_.name;
  t.seed = 0;  // provenance filled by callers that know the original seed
  // Appending, not resize-then-overwrite: value-initialising the buffer
  // first is a second pass over every record's memory.
  t.ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) next_op(t.ops.emplace_back());
  return t;
}

void WorkloadGenerator::generate_into(MicroOp* out, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) next_op(out[i]);
}

}  // namespace samie::trace

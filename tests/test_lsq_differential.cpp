// Differential / oracle testing of the LSQ implementations.
//
// A randomized driver applies identical event sequences (dispatch,
// address-ready, store-data-ready, commit, squash, drain) to the
// conventional LSQ, the ARB and the SAMIE-LSQ, and checks every placed,
// ordering-eligible load's plan against a reference model:
//
//   * if the youngest older overlapping *placed* store fully covers the
//     load, the plan must name exactly that store (ForwardReady/Wait
//     according to its data state);
//   * if it overlaps partially, the plan must be WaitCommit on it;
//   * if nothing overlaps, the plan must be CacheAccess.
//
// All three organizations must agree with the reference — and therefore
// with each other — on every query, across thousands of randomized
// states. This pins the disambiguation logic independently of the core.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"

namespace samie::lsq {
namespace {

struct RefOp {
  InstSeq seq = kNoInst;
  Addr addr = 0;
  std::uint8_t size = 0;
  bool is_load = false;
  bool placed = false;
  bool data_ready = false;
};

/// Reference disambiguator: youngest older overlapping placed store.
struct Reference {
  std::map<InstSeq, RefOp> ops;

  LoadPlan plan(InstSeq load_seq) const {
    const RefOp& l = ops.at(load_seq);
    const RefOp* best = nullptr;
    for (const auto& [s, op] : ops) {
      if (op.is_load || !op.placed || s >= load_seq) continue;
      if (ranges_overlap(l.addr, l.size, op.addr, op.size)) {
        if (best == nullptr || op.seq > best->seq) best = &op;
      }
    }
    LoadPlan p;
    if (best == nullptr) return p;
    p.store = best->seq;
    if (!range_covers(l.addr, l.size, best->addr, best->size)) {
      p.kind = LoadPlan::Kind::kWaitCommit;
    } else if (best->data_ready) {
      p.kind = LoadPlan::Kind::kForwardReady;
    } else {
      p.kind = LoadPlan::Kind::kForwardWait;
    }
    return p;
  }
};

class LsqDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LsqDifferential, AllQueuesMatchTheReferenceModel) {
  Xoshiro256 rng(GetParam());

  // Generous geometries so capacity never interferes with the semantics
  // under test (capacity behaviour has its own suites).
  ConventionalLsq conv(ConventionalLsqConfig{.entries = 256}, nullptr);
  ArbLsq arb(ArbConfig{
      .banks = 4, .rows_per_bank = 64, .max_inflight = 256, .line_bytes = 32});
  SamieLsq samie(SamieConfig{.banks = 4,
                             .entries_per_bank = 8,
                             .slots_per_entry = 8,
                             .shared_entries = 16,
                             .unbounded_shared = false,
                             .addr_buffer_slots = 64,
                             .drain_width = 4,
                             .line_bytes = 32,
                             .l1d_sets = 4},
                 nullptr);
  // Every event reaches the three queues through one generic body; the
  // walk stops at the first fatal failure, so a mismatch is reported
  // once, for the queue that showed it first.
  auto each = [&](auto&& fn) {
    fn(conv);
    if (!HasFatalFailure()) fn(arb);
    if (!HasFatalFailure()) fn(samie);
  };

  Reference ref;
  InstSeq next_seq = 1;
  std::vector<InstSeq> dispatched_unplaced;  // age-ordered
  std::vector<InstSeq> placed_uncommitted;   // age-ordered

  auto check_all_loads = [&] {
    for (InstSeq s : placed_uncommitted) {
      const RefOp& op = ref.ops.at(s);
      if (!op.is_load) continue;
      const LoadPlan expect = ref.plan(s);
      each([&](const auto& q) {
        if (!q.is_placed(s)) return;  // buffered in SAMIE/ARB: no plan yet
        // The plan may only be compared when the queue has the same
        // information as the reference: the reference store must be
        // placed in this queue too (SAMIE can buffer a store the
        // reference already counts).
        if (expect.store != kNoInst && !q.is_placed(expect.store)) return;
        const LoadPlan got = q.plan_load(s);
        ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(expect.kind))
            << "load " << s << " seed " << GetParam();
        ASSERT_EQ(got.store, expect.store) << "load " << s;
      });
      if (HasFatalFailure()) return;
    }
  };

  for (int step = 0; step < 1200; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      // Dispatch + address-ready for a new op (addresses in a small pool
      // of lines so overlaps are frequent).
      const bool is_load = rng.chance(0.55);
      const Addr line = rng.below(8);
      const Addr offset = rng.below(4) * 8;
      const std::uint8_t size = rng.chance(0.3) ? 4 : 8;
      const Addr addr = line * 32 + offset;
      const InstSeq seq = next_seq++;
      bool ok = true;
      each([&](const auto& q) { ok = ok && q.can_dispatch(is_load); });
      if (!ok) continue;
      RefOp op{seq, addr, size, is_load, false, false};
      const MemOpDesc desc{seq, addr, size, is_load, false};
      bool placed_everywhere = true;
      each([&](auto& q) {
        q.on_dispatch(seq, is_load);
        if (q.on_address_ready(desc).status != Placement::Status::kPlaced) {
          placed_everywhere = false;
        }
      });
      op.placed = true;  // the reference sees the address immediately
      ref.ops[seq] = op;
      if (placed_everywhere) {
        placed_uncommitted.push_back(seq);
      } else {
        // Rare with these geometries; retried below via drain.
        dispatched_unplaced.push_back(seq);
      }
    } else if (roll < 0.60 && !placed_uncommitted.empty()) {
      // A store's data arrives (only for ops placed in every queue).
      const std::size_t i = rng.below(placed_uncommitted.size());
      RefOp& op = ref.ops.at(placed_uncommitted[i]);
      if (!op.is_load && !op.data_ready) {
        op.data_ready = true;
        each([&](auto& q) { q.on_store_data_ready(op.seq); });
      }
    } else if (roll < 0.85 && !placed_uncommitted.empty() &&
               (dispatched_unplaced.empty() ||
                placed_uncommitted.front() < dispatched_unplaced.front())) {
      // Commit the globally oldest op (in-order; stores need data first).
      const InstSeq oldest = placed_uncommitted.front();
      RefOp& op = ref.ops.at(oldest);
      const bool data_arrives = !op.is_load && !op.data_ready;
      op.data_ready = op.data_ready || data_arrives;
      each([&](auto& q) {
        if (data_arrives) q.on_store_data_ready(oldest);
        q.on_commit(oldest);
      });
      placed_uncommitted.erase(placed_uncommitted.begin());
      ref.ops.erase(oldest);
    } else if (!placed_uncommitted.empty() || !dispatched_unplaced.empty()) {
      // Squash a random suffix.
      const InstSeq cut = 1 + rng.below(next_seq);
      each([&](auto& q) { q.squash_from(cut); });
      std::erase_if(placed_uncommitted, [&](InstSeq s) { return s >= cut; });
      std::erase_if(dispatched_unplaced, [&](InstSeq s) { return s >= cut; });
      for (auto it = ref.ops.lower_bound(cut); it != ref.ops.end();) {
        it = ref.ops.erase(it);
      }
      next_seq = std::max<InstSeq>(cut, 1);
    }

    // Drain buffered ops each step.
    each([&](auto& q) {
      std::vector<InstSeq> placed;
      q.drain(placed);
      for (InstSeq s : placed) {
        auto it = std::find(dispatched_unplaced.begin(),
                            dispatched_unplaced.end(), s);
        if (it != dispatched_unplaced.end()) {
          dispatched_unplaced.erase(it);
          placed_uncommitted.insert(
              std::upper_bound(placed_uncommitted.begin(),
                               placed_uncommitted.end(), s),
              s);
        }
      }
    });
    check_all_loads();
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsqDifferential,
                         ::testing::Values(1ULL, 7ULL, 13ULL, 101ULL, 9999ULL,
                                           424242ULL));

// ---------------------------------------------------------------------------
// Randomized SAMIE-vs-conventional equivalence sweep.
//
// A tighter SAMIE geometry than the reference test above, so placements
// regularly overflow into the SharedLSQ and the AddrBuffer, exercising the
// bitmask search, the ring-indexed in-flight table, the AddrBuffer ring
// and the drain path. The conventional LSQ (placement never fails) acts as
// the oracle: whenever a load is placed in both queues and its reference
// store (if any) is also placed in both, the two plans must agree exactly.
// Squashes and in-order commits are interleaved aggressively, and after
// every step the O(1) occupancy counters are checked against a
// from-scratch recount (the bitmask-refactor regression test).
// ---------------------------------------------------------------------------

class SamieVsConventional : public ::testing::TestWithParam<std::uint64_t> {};

namespace {

void expect_occupancy_counters_match(const SamieLsq& samie) {
  const OccupancySample fast = samie.occupancy();
  const OccupancySample slow = samie.recount_occupancy();
  ASSERT_EQ(fast.distrib_entries_used, slow.distrib_entries_used);
  ASSERT_EQ(fast.distrib_slots_used, slow.distrib_slots_used);
  ASSERT_EQ(fast.distrib_banks_full, slow.distrib_banks_full);
  ASSERT_EQ(fast.distrib_entries_full, slow.distrib_entries_full);
  ASSERT_EQ(fast.shared_entries_used, slow.shared_entries_used);
  ASSERT_EQ(fast.shared_slots_used, slow.shared_slots_used);
  ASSERT_EQ(fast.shared_entries_full, slow.shared_entries_full);
  ASSERT_EQ(fast.buffer_used, slow.buffer_used);
}

}  // namespace

TEST_P(SamieVsConventional, RandomizedEquivalenceUnderPressure) {
  Xoshiro256 rng(GetParam());

  ConventionalLsq conv(ConventionalLsqConfig{.entries = 512},
                       nullptr);
  SamieLsq samie(SamieConfig{.banks = 2,
                             .entries_per_bank = 1,
                             .slots_per_entry = 2,
                             .shared_entries = 2,
                             .unbounded_shared = false,
                             .addr_buffer_slots = 16,
                             .drain_width = 2,
                             .line_bytes = 32,
                             .l1d_sets = 2},
                 nullptr);

  std::map<InstSeq, RefOp> ops;  // in flight (placed in conv = addr known)
  std::vector<InstSeq> order;    // age-ordered in-flight seqs
  InstSeq next_seq = 1;

  auto samie_headroom_ok = [&] {
    // Headroom is consistent with the gate at every step (the former
    // underflow bug made it wrap to ~4e9 when the buffer was full).
    EXPECT_LE(samie.placement_headroom(), samie.config().addr_buffer_slots);
  };

  auto check_plans = [&] {
    for (InstSeq s : order) {
      const RefOp& op = ops.at(s);
      if (!op.is_load) continue;
      if (!samie.is_placed(s) || !conv.is_placed(s)) continue;
      const LoadPlan expect = conv.plan_load(s);
      if (expect.store != kNoInst && !samie.is_placed(expect.store)) continue;
      const LoadPlan got = samie.plan_load(s);
      ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(expect.kind))
          << "load " << s << " seed " << GetParam();
      ASSERT_EQ(got.store, expect.store) << "load " << s << " seed "
                                         << GetParam();
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.50) {
      // New memory op; SAMIE may buffer (kBuffered) where the generous
      // conventional queue always places.
      // The agen gate: with the headroom exhausted, no new address
      // computations.
      if (samie.placement_headroom() > 0 && conv.can_dispatch(true)) {
        const bool is_load = rng.chance(0.5);
        const Addr line = rng.below(6);
        const Addr offset = rng.below(4) * 8;
        const std::uint8_t size = rng.chance(0.3) ? 4 : 8;
        const MemOpDesc desc{next_seq, line * 32 + offset, size, is_load,
                             false};
        conv.on_dispatch(next_seq, is_load);
        samie.on_dispatch(next_seq, is_load);
        const auto conv_placed = conv.on_address_ready(desc);
        ASSERT_EQ(static_cast<int>(conv_placed.status),
                  static_cast<int>(Placement::Status::kPlaced));
        const auto samie_placed = samie.on_address_ready(desc);
        ASSERT_NE(static_cast<int>(samie_placed.status),
                  static_cast<int>(Placement::Status::kRejected))
            << "rejected despite the agen gate, seed " << GetParam();
        ops[next_seq] = RefOp{next_seq, desc.addr, size, is_load, true, false};
        order.push_back(next_seq);
        ++next_seq;
      }
    } else if (roll < 0.62 && !order.empty()) {
      // Store data arrives (both queues must know the op).
      const InstSeq s = order[rng.below(order.size())];
      RefOp& op = ops.at(s);
      if (!op.is_load && !op.data_ready && samie.is_placed(s)) {
        op.data_ready = true;
        conv.on_store_data_ready(s);
        samie.on_store_data_ready(s);
      }
    } else if (roll < 0.85 && !order.empty()) {
      // Commit the oldest op if it is placed everywhere (in-order).
      const InstSeq oldest = order.front();
      if (samie.is_placed(oldest)) {
        RefOp& op = ops.at(oldest);
        if (!op.is_load && !op.data_ready) {
          op.data_ready = true;
          conv.on_store_data_ready(oldest);
          samie.on_store_data_ready(oldest);
        }
        conv.on_commit(oldest);
        samie.on_commit(oldest);
        order.erase(order.begin());
        ops.erase(oldest);
      }
    } else if (!order.empty()) {
      // Squash a random suffix.
      const InstSeq cut = order[rng.below(order.size())];
      conv.squash_from(cut);
      samie.squash_from(cut);
      std::erase_if(order, [&](InstSeq s) { return s >= cut; });
      for (auto it = ops.lower_bound(cut); it != ops.end();) {
        it = ops.erase(it);
      }
      next_seq = std::max<InstSeq>(cut, 1);
    }

    // Drain SAMIE's AddrBuffer every step.
    std::vector<InstSeq> placed;
    samie.drain(placed);
    for (InstSeq s : placed) {
      ASSERT_TRUE(ops.count(s) != 0) << "drained unknown seq " << s;
      ASSERT_TRUE(samie.is_placed(s));
    }

    samie_headroom_ok();
    ASSERT_NO_FATAL_FAILURE(expect_occupancy_counters_match(samie));
    check_plans();
  }

  // The geometry is tight enough that the sweep must have exercised the
  // AddrBuffer (and therefore the drain/ring paths).
  EXPECT_GT(samie.buffered_placements(), 0U) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamieVsConventional,
                         ::testing::Values(3ULL, 17ULL, 271ULL, 65537ULL,
                                           31337ULL, 987654321ULL));

// ---------------------------------------------------------------------------
// O(1) occupancy counters vs from-scratch recount, across every structural
// transition: fills into distrib + shared, AddrBuffer overflow, drains,
// suffix squashes, and a full drain-out at the end.
// ---------------------------------------------------------------------------
TEST(SamieOccupancyCounters, MatchRecountAcrossLifecycle) {
  Xoshiro256 rng(99);
  SamieLsq samie(SamieConfig{.banks = 4,
                             .entries_per_bank = 2,
                             .slots_per_entry = 2,
                             .shared_entries = 2,
                             .unbounded_shared = false,
                             .addr_buffer_slots = 8,
                             .drain_width = 1,
                             .line_bytes = 32,
                             .l1d_sets = 4},
                 nullptr);

  std::vector<InstSeq> live;
  InstSeq next_seq = 1;
  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55 && samie.placement_headroom() > 0) {
      const MemOpDesc desc{next_seq, rng.below(16) * 8,
                           8, rng.chance(0.5), false};
      const auto p = samie.on_address_ready(desc);
      ASSERT_NE(static_cast<int>(p.status),
                static_cast<int>(Placement::Status::kRejected));
      live.push_back(next_seq);
      ++next_seq;
    } else if (roll < 0.80 && !live.empty()) {
      const InstSeq oldest = live.front();
      if (samie.is_placed(oldest)) {
        samie.on_commit(oldest);
        live.erase(live.begin());
      }
    } else if (!live.empty()) {
      const InstSeq cut = live[rng.below(live.size())];
      samie.squash_from(cut);
      std::erase_if(live, [&](InstSeq s) { return s >= cut; });
    }
    std::vector<InstSeq> placed;
    samie.drain(placed);
    ASSERT_NO_FATAL_FAILURE(expect_occupancy_counters_match(samie));
  }

  // Drain out: commit everything placed, squash the rest; all counters
  // must return to zero and still match the recount.
  samie.squash_from(0);
  ASSERT_NO_FATAL_FAILURE(expect_occupancy_counters_match(samie));
  const OccupancySample end = samie.occupancy();
  EXPECT_EQ(end.distrib_entries_used, 0U);
  EXPECT_EQ(end.distrib_slots_used, 0U);
  EXPECT_EQ(end.shared_entries_used, 0U);
  EXPECT_EQ(end.shared_slots_used, 0U);
  EXPECT_EQ(end.buffer_used, 0U);
}

// The former placement_headroom() underflowed when the buffer held more
// ops than a (shrunken) addr_buffer_slots claims; it must saturate at 0
// and so close the agen gate.
TEST(SamiePlacementHeadroom, SaturatesWhenBufferFull) {
  SamieLsq samie(SamieConfig{.banks = 1,
                             .entries_per_bank = 1,
                             .slots_per_entry = 1,
                             .shared_entries = 1,
                             .unbounded_shared = false,
                             .addr_buffer_slots = 2,
                             .drain_width = 1,
                             .line_bytes = 32,
                             .l1d_sets = 1},
                 nullptr);
  // Fill the single distrib slot + single shared slot, then overflow two
  // ops into the AddrBuffer (capacity 2).
  for (InstSeq s = 1; s <= 4; ++s) {
    ASSERT_NE(static_cast<int>(
                  samie.on_address_ready(MemOpDesc{s, s * 64, 8, true, false})
                      .status),
              static_cast<int>(Placement::Status::kRejected));
  }
  EXPECT_EQ(samie.placement_headroom(), 0U);
  // A fifth placement must be rejected, not wrapped into a huge headroom.
  EXPECT_EQ(static_cast<int>(
                samie.on_address_ready(MemOpDesc{5, 5 * 64, 8, true, false})
                    .status),
            static_cast<int>(Placement::Status::kRejected));
  EXPECT_EQ(samie.placement_headroom(), 0U);
}

}  // namespace
}  // namespace samie::lsq

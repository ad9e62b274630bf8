// Tests for the conventional fully-associative LSQ: allocation, capacity,
// disambiguation/forwarding semantics, squash/commit bookkeeping, and the
// Table 4 energy accounting policy.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "src/energy/ledger.h"
#include "src/lsq/conventional_lsq.h"

namespace samie::lsq {
namespace {

using Status = Placement::Status;
using Kind = LoadPlan::Kind;

[[nodiscard]] MemOpDesc load(InstSeq seq, Addr addr, std::uint8_t size = 8) {
  return MemOpDesc{seq, addr, size, /*is_load=*/true, false};
}
[[nodiscard]] MemOpDesc store(InstSeq seq, Addr addr, std::uint8_t size = 8) {
  return MemOpDesc{seq, addr, size, /*is_load=*/false, false};
}

class ConvLsqTest : public ::testing::Test {
 protected:
  ConvLsqTest()
      : constants_(energy::paper_constants()),
        ledger_(constants_),
        lsq_(ConventionalLsqConfig{.entries = 8}, &ledger_) {}

  energy::LsqEnergyConstants constants_;
  energy::ConvLsqLedger ledger_;
  ConventionalLsq lsq_;
};

TEST_F(ConvLsqTest, CapacityGatesDispatch) {
  for (InstSeq s = 0; s < 8; ++s) {
    ASSERT_TRUE(lsq_.can_dispatch(true));
    lsq_.on_dispatch(s, true);
  }
  EXPECT_FALSE(lsq_.can_dispatch(true));
  lsq_.on_address_ready(load(0, 0x1000));
  lsq_.on_commit(0);
  EXPECT_TRUE(lsq_.can_dispatch(true));
}

TEST_F(ConvLsqTest, PlacedOnlyAfterAddressReady) {
  lsq_.on_dispatch(1, true);
  EXPECT_FALSE(lsq_.is_placed(1));
  EXPECT_EQ(lsq_.on_address_ready(load(1, 0x2000)).status, Status::kPlaced);
  EXPECT_TRUE(lsq_.is_placed(1));
}

TEST_F(ConvLsqTest, LoadForwardsFromYoungestOlderStore) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, false);
  lsq_.on_dispatch(3, true);
  lsq_.on_address_ready(store(1, 0x100));
  lsq_.on_address_ready(store(2, 0x100));
  lsq_.on_address_ready(load(3, 0x100));
  const LoadPlan p = lsq_.plan_load(3);
  EXPECT_EQ(p.store, 2U) << "must forward from the *youngest* older store";
  EXPECT_EQ(p.kind, Kind::kForwardWait);  // no data yet
  lsq_.on_store_data_ready(2);
  EXPECT_EQ(lsq_.plan_load(3).kind, Kind::kForwardReady);
}

TEST_F(ConvLsqTest, NoOverlapMeansCacheAccess) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_address_ready(store(1, 0x100));
  lsq_.on_address_ready(load(2, 0x200));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

TEST_F(ConvLsqTest, PartialCoverageWaitsForCommit) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_address_ready(store(1, 0x104, 4));  // store covers [0x104,0x108)
  lsq_.on_address_ready(load(2, 0x100, 8));   // load needs [0x100,0x108)
  const LoadPlan p = lsq_.plan_load(2);
  EXPECT_EQ(p.kind, Kind::kWaitCommit);
  EXPECT_EQ(p.store, 1U);
  // After the store commits, memory is authoritative again.
  lsq_.on_store_data_ready(1);
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

TEST_F(ConvLsqTest, LateStoreUpdatesEarlierPlacedLoad) {
  // Load places first (no conflict), older store's address arrives later:
  // the store-side search must update the load's forwarding information.
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_address_ready(load(2, 0x300));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
  lsq_.on_address_ready(store(1, 0x300));
  const LoadPlan p = lsq_.plan_load(2);
  EXPECT_EQ(p.kind, Kind::kForwardWait);
  EXPECT_EQ(p.store, 1U);
}

TEST_F(ConvLsqTest, YoungerStoreDoesNotAffectOlderLoad) {
  lsq_.on_dispatch(1, true);
  lsq_.on_dispatch(2, false);
  lsq_.on_address_ready(load(1, 0x400));
  lsq_.on_address_ready(store(2, 0x400));
  EXPECT_EQ(lsq_.plan_load(1).kind, Kind::kCacheAccess);
}

TEST_F(ConvLsqTest, SquashRemovesYoungerOnly) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_dispatch(3, true);
  lsq_.on_address_ready(store(1, 0x100));
  lsq_.on_address_ready(load(2, 0x100));
  lsq_.squash_from(3);
  EXPECT_TRUE(lsq_.is_placed(1));
  EXPECT_TRUE(lsq_.is_placed(2));
  EXPECT_FALSE(lsq_.is_placed(3));
  lsq_.squash_from(2);
  EXPECT_TRUE(lsq_.is_placed(1));
  EXPECT_FALSE(lsq_.is_placed(2));
  EXPECT_EQ(lsq_.occupancy().entries_used, 1U);
}

TEST_F(ConvLsqTest, CommitReleasesInOrder) {
  lsq_.on_dispatch(1, true);
  lsq_.on_dispatch(2, false);
  lsq_.on_address_ready(load(1, 0x100));
  lsq_.on_address_ready(store(2, 0x200));
  EXPECT_EQ(lsq_.occupancy().entries_used, 2U);
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.occupancy().entries_used, 1U);
  lsq_.on_store_data_ready(2);
  lsq_.on_commit(2);
  EXPECT_EQ(lsq_.occupancy().entries_used, 0U);
}

TEST_F(ConvLsqTest, StoreCommitClearsForwardRefsOfWaiters) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_address_ready(store(1, 0x104, 4));
  lsq_.on_address_ready(load(2, 0x100, 8));
  ASSERT_EQ(lsq_.plan_load(2).kind, Kind::kWaitCommit);
  lsq_.on_store_data_ready(1);
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

// -------------------------------------------------------- energy policy ---
TEST_F(ConvLsqTest, SearchComparesOnlyKnownAddresses) {
  // Paper §4.2 fairness: a load compares only against older stores whose
  // address is known.
  lsq_.on_dispatch(1, false);  // store, address unknown
  lsq_.on_dispatch(2, false);  // store, address will be known
  lsq_.on_dispatch(3, true);
  lsq_.on_address_ready(store(2, 0x500));
  const std::uint64_t before = ledger_.addresses_compared();
  lsq_.on_address_ready(load(3, 0x600));
  EXPECT_EQ(ledger_.addresses_compared() - before, 1U)
      << "only store 2's (known) address may be compared";
}

TEST_F(ConvLsqTest, StoreSearchComparesYoungerKnownLoads) {
  lsq_.on_dispatch(1, false);
  lsq_.on_dispatch(2, true);
  lsq_.on_dispatch(3, true);
  lsq_.on_address_ready(load(2, 0x100));
  // load 3's address still unknown
  const std::uint64_t before = ledger_.addresses_compared();
  lsq_.on_address_ready(store(1, 0x700));
  EXPECT_EQ(ledger_.addresses_compared() - before, 1U);
}

TEST_F(ConvLsqTest, EnergyEventsFollowTable4) {
  lsq_.on_dispatch(1, false);
  lsq_.on_address_ready(store(1, 0x100));  // addr write + search(0)
  EXPECT_DOUBLE_EQ(ledger_.energy_pj(), 57.1 + 452.0);
  lsq_.on_store_data_ready(1);  // datum write
  EXPECT_DOUBLE_EQ(ledger_.energy_pj(), 57.1 + 452.0 + 93.2);
}

TEST(ConvLsqConfig, RefusesZeroEntries) {
  // No entry means can_dispatch() is never true: no memory op could
  // dispatch, and the pipeline would wedge until the watchdog fired.
  EXPECT_THROW(ConventionalLsq(ConventionalLsqConfig{.entries = 0}, nullptr),
               std::invalid_argument);
  EXPECT_NO_THROW(
      ConventionalLsq(ConventionalLsqConfig{.entries = 1}, nullptr));
}

TEST(ConvLsqUnbounded, NeverStalls) {
  // Figure 1's unbounded queue: one entry per ROB slot.
  ConventionalLsq u(ConventionalLsqConfig{.entries = 256}, nullptr);
  for (InstSeq s = 0; s < 256; ++s) {
    ASSERT_TRUE(u.can_dispatch(true));
    u.on_dispatch(s, s % 2 == 0);
  }
  EXPECT_EQ(u.occupancy().entries_used, 256U);
}

// O(1)-lookup-vs-recount regression for the SeqRingTable port (mirrors
// the ArbLsq/SamieLsq recount tests): randomized dispatch / address /
// commit / squash traffic, cross-checking after every step that the seq
// table resolves every queued entry to its ring position and that the
// absolute-index arithmetic stayed consistent.
TEST(ConvLsqRingTable, RandomizedRecountStaysConsistent) {
  std::mt19937_64 rng(4242);
  ConventionalLsq lsq(ConventionalLsqConfig{.entries = 32},
                      nullptr);
  std::vector<InstSeq> queued;  // age order, mirrors the ring
  InstSeq next_seq = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t dice = rng() % 100;
    if (dice < 45) {
      if (lsq.can_dispatch(true)) {
        const bool is_load = rng() % 2 == 0;
        lsq.on_dispatch(next_seq, is_load);
        queued.push_back(next_seq);
        // Addresses land on a handful of lines so forwarding refs form.
        const Addr addr = 0x1000 + (rng() % 8) * 8;
        if (rng() % 4 != 0) {
          MemOpDesc op{next_seq, addr, 8, is_load, false};
          lsq.on_address_ready(op);
        }
        ++next_seq;
      }
    } else if (dice < 80) {
      if (!queued.empty()) {
        lsq.on_commit(queued.front());
        queued.erase(queued.begin());
      }
    } else if (dice < 95) {
      if (!queued.empty()) {
        const std::size_t keep = rng() % queued.size();
        lsq.squash_from(queued[keep]);
        queued.resize(keep);
        next_seq = queued.empty() ? next_seq : queued.back() + 1;
      }
    } else {
      // Window gap: seqs of non-memory instructions never enter the LSQ.
      next_seq += 1 + rng() % 5;
    }
    // recount_occupancy() itself asserts every table lookup resolves to
    // the right ring position; the EXPECT pins the external count.
    const OccupancySample recount = lsq.recount_occupancy();
    ASSERT_EQ(recount.entries_used, queued.size()) << "step " << step;
  }
}

// The table survives the squash-then-refill pattern that rewinds and
// reuses absolute indices.
TEST(ConvLsqRingTable, SquashRewindsAllocationIndices) {
  ConventionalLsq lsq(ConventionalLsqConfig{.entries = 8},
                      nullptr);
  for (InstSeq s = 0; s < 6; ++s) lsq.on_dispatch(s, true);
  lsq.squash_from(2);  // pops 2..5, rewinding four indices
  for (InstSeq s = 2; s < 8; ++s) lsq.on_dispatch(s + 100, true);
  EXPECT_EQ(lsq.recount_occupancy().entries_used, 8U);
  EXPECT_EQ(lsq.on_address_ready(load(103, 0x40)).status, Status::kPlaced);
  EXPECT_TRUE(lsq.is_placed(103));
  lsq.on_commit(0);
  lsq.on_commit(1);
  EXPECT_EQ(lsq.recount_occupancy().entries_used, 6U);
  EXPECT_TRUE(lsq.is_placed(103));
}

TEST(ConvLsqOverlapHelpers, RangesAndCoverage) {
  EXPECT_TRUE(ranges_overlap(0x100, 8, 0x104, 8));
  EXPECT_FALSE(ranges_overlap(0x100, 4, 0x104, 4));
  EXPECT_TRUE(range_covers(0x104, 4, 0x100, 8));   // store [100,108) covers load [104,108)
  EXPECT_FALSE(range_covers(0x100, 8, 0x104, 4));  // partial
  EXPECT_TRUE(range_covers(0x100, 8, 0x100, 8));
}

}  // namespace
}  // namespace samie::lsq

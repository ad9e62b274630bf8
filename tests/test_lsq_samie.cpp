// Tests for the SAMIE-LSQ: bank/entry/slot placement (§3.2), SharedLSQ
// overflow, AddrBuffer FIFO + drain priority (§3.3), forwarding across
// same-line entries, presentBit / cached-translation reuse and
// invalidation (§3.4), Table 5 energy events, and occupancy accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/energy/ledger.h"
#include "src/lsq/samie_lsq.h"

namespace samie::lsq {
namespace {

using Status = Placement::Status;
using Kind = LoadPlan::Kind;

[[nodiscard]] MemOpDesc load(InstSeq seq, Addr addr, std::uint8_t size = 8) {
  return MemOpDesc{seq, addr, size, true, false};
}
[[nodiscard]] MemOpDesc store(InstSeq seq, Addr addr, std::uint8_t size = 8) {
  return MemOpDesc{seq, addr, size, false, false};
}

/// 4 banks x 1 entry x 2 slots, 2 shared entries, 4-slot AddrBuffer.
[[nodiscard]] SamieConfig tiny() {
  return SamieConfig{.banks = 4,
                     .entries_per_bank = 1,
                     .slots_per_entry = 2,
                     .shared_entries = 2,
                     .unbounded_shared = false,
                     .addr_buffer_slots = 4,
                     .drain_width = 4,
                     .line_bytes = 32,
                     .l1d_sets = 4};
}

/// Address of line `l` (line index), byte offset `off`.
[[nodiscard]] constexpr Addr at(Addr l, Addr off = 0) { return l * 32 + off; }

class SamieTest : public ::testing::Test {
 protected:
  SamieTest()
      : constants_(energy::paper_constants()),
        ledger_(constants_),
        lsq_(tiny(), &ledger_) {}

  energy::LsqEnergyConstants constants_;
  energy::SamieLsqLedger ledger_;
  SamieLsq lsq_;
};

// ------------------------------------------------------------ placement ---
TEST_F(SamieTest, SameLineInstructionsShareAnEntry) {
  EXPECT_EQ(lsq_.on_address_ready(load(1, at(4, 0))).status, Status::kPlaced);
  EXPECT_EQ(lsq_.on_address_ready(load(2, at(4, 8))).status, Status::kPlaced);
  const OccupancySample occ = lsq_.occupancy();
  EXPECT_EQ(occ.distrib_entries_used, 1U);
  EXPECT_EQ(occ.distrib_slots_used, 2U);
}

TEST_F(SamieTest, DifferentBanksDifferentEntries) {
  lsq_.on_address_ready(load(1, at(4)));   // bank 0
  lsq_.on_address_ready(load(2, at(5)));   // bank 1
  const OccupancySample occ = lsq_.occupancy();
  EXPECT_EQ(occ.distrib_entries_used, 2U);
  EXPECT_EQ(occ.shared_entries_used, 0U);
}

TEST_F(SamieTest, BankOverflowGoesToShared) {
  lsq_.on_address_ready(load(1, at(0)));   // bank 0, entry taken
  EXPECT_EQ(lsq_.on_address_ready(load(2, at(4))).status, Status::kPlaced);
  EXPECT_EQ(lsq_.occupancy().shared_entries_used, 1U)
      << "second line of bank 0 must overflow into the SharedLSQ";
}

TEST_F(SamieTest, FullSlotsSameLineAllocatesAnotherEntry) {
  // Paper §3.2: present but without free slots -> allocate a new entry.
  lsq_.on_address_ready(load(1, at(0, 0)));
  lsq_.on_address_ready(load(2, at(0, 8)));   // entry now slot-full
  EXPECT_EQ(lsq_.on_address_ready(load(3, at(0, 16))).status, Status::kPlaced);
  const OccupancySample occ = lsq_.occupancy();
  // Bank 0 has one entry; the overflow same-line entry lives in shared.
  EXPECT_EQ(occ.distrib_entries_used, 1U);
  EXPECT_EQ(occ.shared_entries_used, 1U);
}

TEST_F(SamieTest, ExhaustionBuffersInFifo) {
  // Fill bank 0's entry (line 0) and both shared entries (lines 4, 8 also
  // bank 0), then the next bank-0 line must buffer.
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));
  lsq_.on_address_ready(load(3, at(8)));
  EXPECT_EQ(lsq_.on_address_ready(load(4, at(12))).status, Status::kBuffered);
  EXPECT_FALSE(lsq_.is_placed(4));
  EXPECT_EQ(lsq_.occupancy().buffer_used, 1U);
  EXPECT_EQ(lsq_.buffered_placements(), 1U);
}

TEST_F(SamieTest, CanComputeAddressGateTracksBufferSpace) {
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));
  lsq_.on_address_ready(load(3, at(8)));
  for (InstSeq s = 4; s < 8; ++s) {
    ASSERT_GT(lsq_.placement_headroom(), 0U);
    ASSERT_EQ(lsq_.on_address_ready(load(s, at(4 * s))).status,
              Status::kBuffered);
  }
  EXPECT_EQ(lsq_.placement_headroom(), 0U) << "AddrBuffer is full";
}

TEST_F(SamieTest, DrainPlacesBufferedWithPriorityInFifoOrder) {
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));
  lsq_.on_address_ready(load(3, at(8)));
  lsq_.on_address_ready(load(4, at(12)));  // buffered
  lsq_.on_address_ready(load(5, at(16)));  // buffered
  std::vector<InstSeq> placed;
  lsq_.drain(placed);
  EXPECT_TRUE(placed.empty());
  lsq_.on_commit(1);  // frees bank 0's entry (line 0)
  lsq_.drain(placed);
  ASSERT_EQ(placed.size(), 1U);
  EXPECT_EQ(placed[0], 4U) << "FIFO head first";
  lsq_.on_commit(2);  // frees a shared entry
  lsq_.drain(placed);
  ASSERT_EQ(placed.size(), 2U);
  EXPECT_EQ(placed[1], 5U);
}

// ------------------------------------------------------------ forwarding ---
TEST_F(SamieTest, ForwardWithinEntry) {
  lsq_.on_address_ready(store(1, at(4, 0)));
  lsq_.on_address_ready(load(2, at(4, 0)));
  LoadPlan p = lsq_.plan_load(2);
  EXPECT_EQ(p.kind, Kind::kForwardWait);
  EXPECT_EQ(p.store, 1U);
  lsq_.on_store_data_ready(1);
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kForwardReady);
}

TEST_F(SamieTest, ForwardAcrossSameLineEntries) {
  // Store fills the bank entry's slots; the load for the same line lands
  // in a *different* (shared) entry — forwarding must still be found.
  lsq_.on_address_ready(store(1, at(0, 0)));
  lsq_.on_address_ready(load(2, at(0, 8)));   // fills the bank entry
  lsq_.on_address_ready(load(3, at(0, 0)));   // same line, new shared entry
  EXPECT_EQ(lsq_.occupancy().shared_entries_used, 1U);
  const LoadPlan p = lsq_.plan_load(3);
  EXPECT_EQ(p.kind, Kind::kForwardWait);
  EXPECT_EQ(p.store, 1U);
}

TEST_F(SamieTest, YoungestOlderStoreWins) {
  lsq_.on_address_ready(store(1, at(4, 0)));
  lsq_.on_address_ready(store(2, at(4, 0)));
  lsq_.on_address_ready(load(3, at(4, 0)));
  EXPECT_EQ(lsq_.plan_load(3).store, 2U);
}

TEST_F(SamieTest, PartialCoverageWaitsForCommit) {
  lsq_.on_address_ready(store(1, at(4, 4), 4));
  lsq_.on_address_ready(load(2, at(4, 0), 8));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kWaitCommit);
  lsq_.on_store_data_ready(1);
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

TEST_F(SamieTest, LateStoreUpdatesPlacedLoads) {
  lsq_.on_address_ready(load(2, at(4, 0)));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
  lsq_.on_address_ready(store(1, at(4, 0)));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kForwardWait);
}

TEST_F(SamieTest, DifferentLinesNeverForward) {
  lsq_.on_address_ready(store(1, at(4, 0)));
  lsq_.on_address_ready(load(2, at(5, 0)));
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

// --------------------------------------------- presentBit / translation ---
TEST_F(SamieTest, CachesLocationAndTranslationAfterFirstAccess) {
  lsq_.on_address_ready(load(1, at(4, 0)));
  lsq_.on_address_ready(load(2, at(4, 8)));
  EXPECT_FALSE(lsq_.cache_hints(1).way_known);
  lsq_.on_cache_access_complete(1, /*set=*/1, /*way=*/3);
  const CacheHints h = lsq_.cache_hints(2);
  EXPECT_TRUE(h.way_known);
  EXPECT_EQ(h.set, 1U);
  EXPECT_EQ(h.way, 3U);
  EXPECT_TRUE(h.translation_known);
}

TEST_F(SamieTest, ReplacementResetsPresentBitInAffectedBankOnly) {
  lsq_.on_address_ready(load(1, at(4)));   // bank 0 == set 0 (4 % 4)
  lsq_.on_address_ready(load(2, at(5)));   // bank 1 == set 1
  lsq_.on_cache_access_complete(1, 0, 0);
  lsq_.on_cache_access_complete(2, 1, 0);
  lsq_.on_cache_line_replaced(/*set=*/0);
  EXPECT_FALSE(lsq_.cache_hints(1).way_known);
  EXPECT_TRUE(lsq_.cache_hints(2).way_known) << "bank 1 must be untouched";
  EXPECT_GE(lsq_.present_bit_resets(), 1U);
}

TEST(SamieReplacement, ResetsEveryBankThatCanHoldALineOfTheSet) {
  // A line L sits in bank L % banks and set L % sets, so when banks and
  // sets do not divide one another a set's lines spread over several
  // banks (every bank b == set mod gcd(banks, sets)). Each must lose its
  // presentBit, or a later access trusts a way the cache has refilled.
  constexpr std::uint32_t kSets = 64;
  for (const std::uint32_t banks : {3U, 48U, 64U, 128U}) {
    for (const std::uint32_t set : {0U, 5U, 63U}) {
      SCOPED_TRACE("banks=" + std::to_string(banks) +
                   " set=" + std::to_string(set));
      SamieLsq lsq(SamieConfig{.banks = banks,
                               .entries_per_bank = 64,
                               .slots_per_entry = 1,
                               .shared_entries = 0,
                               .addr_buffer_slots = 1,
                               .line_bytes = 32,
                               .l1d_sets = kSets},
                   nullptr);
      constexpr Addr kLines = 3 * kSets;
      for (Addr l = 0; l < kLines; ++l) {
        const InstSeq seq = l + 1;
        ASSERT_EQ(lsq.on_address_ready(load(seq, at(l))).status,
                  Status::kPlaced);
        lsq.on_cache_access_complete(seq, static_cast<std::uint32_t>(l % kSets),
                                     0);
      }
      lsq.on_cache_line_replaced(set);
      for (Addr l = set; l < kLines; l += kSets) {
        EXPECT_FALSE(lsq.cache_hints(l + 1).way_known)
            << "line " << l << " in bank " << l % banks
            << " kept a stale presentBit";
      }
    }
  }
}

TEST_F(SamieTest, ReplacementResetsAllSharedEntries) {
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));   // shared (bank 0 full)
  lsq_.on_cache_access_complete(2, 0, 1);
  ASSERT_TRUE(lsq_.cache_hints(2).way_known);
  lsq_.on_cache_line_replaced(/*set=*/3);  // any set resets shared entries
  EXPECT_FALSE(lsq_.cache_hints(2).way_known);
}

TEST_F(SamieTest, TranslationSurvivesReplacement) {
  lsq_.on_address_ready(load(1, at(4)));
  lsq_.on_cache_access_complete(1, 0, 0);
  lsq_.on_cache_line_replaced(0);
  const CacheHints h = lsq_.cache_hints(1);
  EXPECT_FALSE(h.way_known);
  EXPECT_TRUE(h.translation_known)
      << "a cache replacement does not invalidate the page translation";
}

TEST_F(SamieTest, EntryReleaseDropsCachedState) {
  lsq_.on_address_ready(load(1, at(4)));
  lsq_.on_cache_access_complete(1, 1, 1);
  lsq_.on_commit(1);  // last slot -> entry freed
  lsq_.on_address_ready(load(2, at(4)));
  const CacheHints h = lsq_.cache_hints(2);
  EXPECT_FALSE(h.way_known);
  EXPECT_FALSE(h.translation_known);
}

// ------------------------------------------------------- commit / squash ---
TEST_F(SamieTest, EntryFreedWhenLastSlotCommits) {
  lsq_.on_address_ready(load(1, at(4, 0)));
  lsq_.on_address_ready(load(2, at(4, 8)));
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.occupancy().distrib_entries_used, 1U);
  lsq_.on_commit(2);
  const OccupancySample occ = lsq_.occupancy();
  EXPECT_EQ(occ.distrib_entries_used, 0U);
  EXPECT_EQ(occ.distrib_slots_used, 0U);
}

TEST_F(SamieTest, StoreCommitClearsForwardRefs) {
  lsq_.on_address_ready(store(1, at(4, 0)));
  lsq_.on_address_ready(load(2, at(4, 0)));
  lsq_.on_store_data_ready(1);
  ASSERT_EQ(lsq_.plan_load(2).kind, Kind::kForwardReady);
  lsq_.on_commit(1);
  EXPECT_EQ(lsq_.plan_load(2).kind, Kind::kCacheAccess);
}

TEST_F(SamieTest, SquashRemovesYoungerEverywhere) {
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));
  lsq_.on_address_ready(load(3, at(8)));
  lsq_.on_address_ready(load(4, at(12)));  // buffered
  lsq_.squash_from(2);
  EXPECT_TRUE(lsq_.is_placed(1));
  EXPECT_FALSE(lsq_.is_placed(2));
  EXPECT_FALSE(lsq_.is_placed(3));
  const OccupancySample occ = lsq_.occupancy();
  EXPECT_EQ(occ.distrib_entries_used, 1U);
  EXPECT_EQ(occ.shared_entries_used, 0U);
  EXPECT_EQ(occ.buffer_used, 0U);
}

TEST_F(SamieTest, OccupancyCountersStayConsistentUnderChurn) {
  // Deterministic churn across place/commit/squash; counters must match a
  // from-scratch recount at every step (guards the O(1) bookkeeping).
  std::uint32_t placed_count = 0;
  InstSeq next = 1;
  for (int round = 0; round < 50; ++round) {
    const Addr line = static_cast<Addr>(round * 7 % 16);
    const MemOpDesc op = load(next, at(line, static_cast<Addr>(round % 4) * 8));
    if (lsq_.on_address_ready(op).status == Status::kPlaced) ++placed_count;
    ++next;
    const OccupancySample occ = lsq_.occupancy();
    EXPECT_EQ(occ.distrib_slots_used + occ.shared_slots_used, placed_count);
    if (round % 7 == 6) {
      // Commit the oldest placed instruction.
      for (InstSeq s = 1; s < next; ++s) {
        if (lsq_.is_placed(s)) {
          lsq_.on_commit(s);
          --placed_count;
          break;
        }
      }
    }
  }
}

// ------------------------------------------------------- energy (Table 5) ---
TEST_F(SamieTest, PlacementChargesBusAndParallelSearch) {
  lsq_.on_address_ready(load(1, at(4)));
  // Empty structures: base search costs + bus + entry write + age write.
  const double expected = 54.4                  // bus
                          + 4.33 + 22.7          // bank + shared base compare
                          + 4.07                 // DistribLSQ address write
                          + 1.64;                // age id write
  EXPECT_DOUBLE_EQ(ledger_.energy_pj(), expected);
  EXPECT_EQ(ledger_.bus_sends(), 1U);
  EXPECT_EQ(ledger_.distrib_searches(), 1U);
  EXPECT_EQ(ledger_.shared_searches(), 1U);
}

TEST_F(SamieTest, SearchCostGrowsWithInUseEntries) {
  lsq_.on_address_ready(load(1, at(0)));
  const double after_first = ledger_.energy_pj();
  lsq_.on_address_ready(load(2, at(4)));  // sees 1 in-use entry in bank 0
  const double second_cost = ledger_.energy_pj() - after_first;
  // bus + (bank base + 1 compared + 1 age-entry search of 1 id)
  // + shared base + shared entry write + age write
  const double expected = 54.4 + (4.33 + 2.17) + (19.4 + 1.21) + 22.7 +
                          6.16 + 1.64;
  EXPECT_DOUBLE_EQ(second_cost, expected);
}

TEST_F(SamieTest, BufferedOpsChargeAddrBufferEnergy) {
  lsq_.on_address_ready(load(1, at(0)));
  lsq_.on_address_ready(load(2, at(4)));
  lsq_.on_address_ready(load(3, at(8)));
  const double before = ledger_.addrbuf_pj();
  lsq_.on_address_ready(load(4, at(12)));  // buffered: one FIFO write
  EXPECT_DOUBLE_EQ(ledger_.addrbuf_pj() - before, 31.6 + 15.7);
  std::vector<InstSeq> placed;
  lsq_.drain(placed);  // failed retry still reads the FIFO head
  EXPECT_DOUBLE_EQ(ledger_.addrbuf_pj() - before, 2 * (31.6 + 15.7));
}

TEST_F(SamieTest, HintsChargeCachedReads) {
  lsq_.on_address_ready(load(1, at(4)));
  lsq_.on_cache_access_complete(1, 0, 0);
  const double before = ledger_.distrib_pj();
  (void)lsq_.cache_hints(1);
  EXPECT_DOUBLE_EQ(ledger_.distrib_pj() - before, 0.236 + 6.02)
      << "reading the cached line id + translation from the entry";
}

// ------------------------------------------------------ unbounded shared ---
TEST(SamieUnboundedShared, GrowsBeyondConfiguredEntries) {
  SamieConfig cfg = tiny();
  cfg.unbounded_shared = true;
  SamieLsq lsq(cfg, nullptr);
  // 10 distinct lines, all bank 0: 1 fits the bank, 9 spill to shared.
  for (InstSeq s = 0; s < 10; ++s) {
    ASSERT_EQ(lsq.on_address_ready(load(s + 1, at(s * 4))).status,
              Status::kPlaced);
  }
  EXPECT_EQ(lsq.occupancy().shared_entries_used, 9U);
  EXPECT_EQ(lsq.occupancy().buffer_used, 0U);
}

TEST(SamieConfigValidation, RefusesAnAddrBufferThatCannotFillOrDrain) {
  // No slot means placement_headroom() is never positive: no memory op
  // could issue, and the pipeline would wedge until the watchdog fired.
  // A drain width of 0 places no buffered op: the AddrBuffer would empty
  // only through squashes and deadlock-avoidance flushes.
  for (std::uint32_t SamieConfig::*field :
       {&SamieConfig::addr_buffer_slots, &SamieConfig::drain_width}) {
    SamieConfig cfg = tiny();
    cfg.*field = 0;
    EXPECT_THROW(SamieLsq(cfg, nullptr), std::invalid_argument);
    cfg.*field = 1;
    EXPECT_NO_THROW(SamieLsq(cfg, nullptr));
  }
}

TEST(SamieConfigValidation, RefusesALineThatIsNotAPowerOfTwoOrZeroL1dSets) {
  // A line of 24 bytes splits the same L1D line over two entries, and a
  // line above 256 bytes overflows a slot's one-byte offset: either way
  // disambiguation misses overlaps and forwards wrong values. With no
  // L1D set the presentBit reset has no bank to aim at.
  const auto refusal = [](const SamieConfig& cfg) -> std::string {
    try {
      SamieLsq lsq(cfg, nullptr);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const std::uint32_t line : {0U, 24U, 48U, 512U}) {
    SamieConfig cfg = tiny();
    cfg.line_bytes = line;
    EXPECT_NE(refusal(cfg).find("line_bytes"), std::string::npos)
        << "line_bytes=" << line << ": " << refusal(cfg);
  }
  SamieConfig cfg = tiny();
  cfg.l1d_sets = 0;
  EXPECT_NE(refusal(cfg).find("l1d_sets"), std::string::npos) << refusal(cfg);
  cfg.l1d_sets = 1;
  EXPECT_EQ(refusal(cfg), "accepted");
}

TEST(SamieConfigDefaults, MatchPaperTable3) {
  const SamieConfig cfg;
  EXPECT_EQ(cfg.banks, 64U);
  EXPECT_EQ(cfg.entries_per_bank, 2U);
  EXPECT_EQ(cfg.slots_per_entry, 8U);
  EXPECT_EQ(cfg.shared_entries, 8U);
  EXPECT_EQ(cfg.addr_buffer_slots, 64U);
}

}  // namespace
}  // namespace samie::lsq

/**
 * @file
 * Unit tests for the MESI bus: grant states, remote demotion and
 * writeback, the MuonTrap NACK rule, commit upgrades, filter-invalidate
 * broadcasts, and prefetch fills.
 */

#include <gtest/gtest.h>

#include "coherence/bus.hh"

#include "common/log.hh"
#include "muontrap/filter_cache.hh"

namespace mtrap
{
namespace
{

/** Two-core rig with optional filter caches. */
struct BusRig
{
    explicit BusRig(bool with_filters = false)
        : root("rig"),
          mem(MemoryParams{}, &root),
          l2(CacheParams{"l2", 256 * 1024, 8, 20, 16}, &root)
    {
        bus = std::make_unique<CoherenceBus>(BusParams{}, &l2, &mem,
                                             &root);
        for (unsigned c = 0; c < 2; ++c) {
            l1d.push_back(std::make_unique<Cache>(
                CacheParams{strfmt("l1d%u", c), 4096, 2, 2, 4}, &root));
            l1i.push_back(std::make_unique<Cache>(
                CacheParams{strfmt("l1i%u", c), 4096, 2, 1, 4}, &root));
            if (with_filters) {
                fd.push_back(std::make_unique<FilterCache>(
                    CacheParams{strfmt("fd%u", c), 2048, 4, 1, 4}, &root));
            }
            BusNode n;
            n.l1d = l1d.back().get();
            n.l1i = l1i.back().get();
            n.filterD = with_filters ? fd.back().get() : nullptr;
            bus->addNode(n);
        }
    }

    StatGroup root;
    MainMemory mem;
    Cache l2;
    std::unique_ptr<CoherenceBus> bus;
    std::vector<std::unique_ptr<Cache>> l1d;
    std::vector<std::unique_ptr<Cache>> l1i;
    std::vector<std::unique_ptr<FilterCache>> fd;
};

constexpr Addr A = 0x4000;

TEST(Bus, ColdReadComesFromMemory)
{
    BusRig rig;
    SnoopOutcome so = rig.bus->readRequest(0, A, false, false, true);
    EXPECT_FALSE(so.nacked);
    EXPECT_FALSE(so.l2Hit);
    EXPECT_EQ(so.serviceLevel, 3u);
    EXPECT_TRUE(so.wouldBeExclusive);
    EXPECT_EQ(rig.bus->memoryFetches.value(), 1u);
    // fill_l2 installed the line.
    EXPECT_NE(rig.l2.peek(A), nullptr);
}

TEST(Bus, SecondReadHitsL2)
{
    BusRig rig;
    rig.bus->readRequest(0, A, false, false, true);
    SnoopOutcome so = rig.bus->readRequest(1, A, false, false, true);
    EXPECT_TRUE(so.l2Hit);
    EXPECT_EQ(so.serviceLevel, 2u);
    EXPECT_EQ(rig.bus->memoryFetches.value(), 1u);
}

TEST(Bus, ReadDemotesRemoteModifiedWithWriteback)
{
    BusRig rig;
    // Core 1 owns A in M.
    CacheLine &l = rig.l1d[1]->fill(A, CoherState::Modified);
    l.dirty = true;
    SnoopOutcome so = rig.bus->readRequest(0, A, false, false, true);
    EXPECT_TRUE(so.remoteSupplied);
    EXPECT_EQ(rig.l1d[1]->peek(A)->state, CoherState::Shared);
    // The M data was written back into the L2.
    ASSERT_NE(rig.l2.peek(A), nullptr);
    EXPECT_EQ(rig.bus->writebacksToL2.value(), 1u);
}

TEST(Bus, ReadDemotesRemoteExclusiveNoWriteback)
{
    BusRig rig;
    rig.l1d[1]->fill(A, CoherState::Exclusive);
    SnoopOutcome so = rig.bus->readRequest(0, A, false, false, true);
    EXPECT_TRUE(so.remoteSupplied);
    EXPECT_EQ(rig.l1d[1]->peek(A)->state, CoherState::Shared);
    EXPECT_EQ(rig.bus->writebacksToL2.value(), 0u);
}

TEST(Bus, SpeculativeReadNackedWhenRemoteExclusive)
{
    BusRig rig(true);
    rig.l1d[1]->fill(A, CoherState::Modified);
    SnoopOutcome so = rig.bus->readRequest(0, A, /*speculative=*/true,
                                           /*muontrap_rules=*/true,
                                           false);
    EXPECT_TRUE(so.nacked);
    EXPECT_EQ(rig.bus->nacks.value(), 1u);
    // The remote line is untouched — that is the whole point.
    EXPECT_EQ(rig.l1d[1]->peek(A)->state, CoherState::Modified);
}

TEST(Bus, SpeculativeReadAllowedWhenRemoteShared)
{
    BusRig rig(true);
    rig.l1d[1]->fill(A, CoherState::Shared);
    SnoopOutcome so = rig.bus->readRequest(0, A, true, true, false);
    EXPECT_FALSE(so.nacked);
    // Not exclusive: another non-speculative cache holds it.
    EXPECT_FALSE(so.wouldBeExclusive);
}

TEST(Bus, NonSpeculativeRetrySucceedsAfterNack)
{
    BusRig rig(true);
    rig.l1d[1]->fill(A, CoherState::Modified);
    rig.bus->readRequest(0, A, true, true, false);
    SnoopOutcome so = rig.bus->readRequest(0, A, /*speculative=*/false,
                                           true, false);
    EXPECT_FALSE(so.nacked);
    EXPECT_EQ(rig.l1d[1]->peek(A)->state, CoherState::Shared);
}

TEST(Bus, FilterCopiesDoNotBlockExclusiveGrant)
{
    BusRig rig(true);
    // Core 1's *filter* holds A in S — invisible to the grant decision
    // (§4.5: only non-speculative caches are checked).
    rig.fd[1]->fillVirt(1, A, A, true, 2, false);
    SnoopOutcome so = rig.bus->readRequest(0, A, true, true, false);
    EXPECT_FALSE(so.nacked);
    EXPECT_TRUE(so.wouldBeExclusive)
        << "speculative filter state must not leak into grant decisions";
}

TEST(Bus, WriteInvalidatesAllRemoteCopies)
{
    BusRig rig(true);
    rig.l1d[1]->fill(A, CoherState::Shared);
    rig.l1i[1]->fill(A, CoherState::Shared);
    rig.fd[1]->fillVirt(1, A, A, true, 2, false);
    SnoopOutcome so = rig.bus->writeRequest(0, A, false, false, true);
    EXPECT_FALSE(so.nacked);
    EXPECT_EQ(rig.l1d[1]->peek(A), nullptr);
    EXPECT_EQ(rig.l1i[1]->peek(A), nullptr);
    EXPECT_FALSE(rig.fd[1]->presentValid(A));
}

TEST(Bus, SpeculativeWriteNackedUnderMuonTrapRules)
{
    BusRig rig(true);
    SnoopOutcome so = rig.bus->writeRequest(0, A, true, true, false);
    EXPECT_TRUE(so.nacked);
}

TEST(Bus, WriteRequestWritesBackRemoteM)
{
    BusRig rig;
    CacheLine &l = rig.l1d[1]->fill(A, CoherState::Modified);
    l.dirty = true;
    rig.bus->writeRequest(0, A, false, false, true);
    EXPECT_EQ(rig.l1d[1]->peek(A), nullptr);
    ASSERT_NE(rig.l2.peek(A), nullptr);
    EXPECT_EQ(rig.bus->writebacksToL2.value(), 1u);
}

// --- commit upgrades ----------------------------------------------------------

TEST(Bus, CommitUpgradeNoBroadcastWhenAlreadyExclusive)
{
    BusRig rig(true);
    rig.l1d[0]->fill(A, CoherState::Exclusive);
    const bool broadcast = rig.bus->commitUpgrade(0, A, true, true);
    EXPECT_FALSE(broadcast);
    EXPECT_EQ(rig.l1d[0]->peek(A)->state, CoherState::Modified);
    EXPECT_EQ(rig.bus->storeUpgrades.value(), 1u);
    EXPECT_EQ(rig.bus->storeUpgradeBroadcasts.value(), 0u);
}

TEST(Bus, CommitUpgradeBroadcastsWhenShared)
{
    BusRig rig(true);
    rig.l1d[0]->fill(A, CoherState::Shared);
    rig.l1d[1]->fill(A, CoherState::Shared);
    rig.fd[1]->fillVirt(1, A, A, true, 2, false);
    const bool broadcast = rig.bus->commitUpgrade(0, A, true, true);
    EXPECT_TRUE(broadcast);
    EXPECT_EQ(rig.l1d[1]->peek(A), nullptr);
    EXPECT_FALSE(rig.fd[1]->presentValid(A));
    EXPECT_EQ(rig.l1d[0]->peek(A)->state, CoherState::Modified);
    EXPECT_EQ(rig.bus->storeUpgradeBroadcasts.value(), 1u);
}

TEST(Bus, SeUpgradeToExclusiveCountedSeparately)
{
    BusRig rig(true);
    rig.l1d[0]->fill(A, CoherState::Shared);
    rig.bus->commitUpgrade(0, A, /*is_store=*/false,
                           /*to_modified=*/false);
    EXPECT_EQ(rig.l1d[0]->peek(A)->state, CoherState::Exclusive);
    EXPECT_EQ(rig.bus->seUpgrades.value(), 1u);
    EXPECT_EQ(rig.bus->storeUpgrades.value(), 0u);
}

TEST(Bus, CommitUpgradeFillsOwnL1WhenAbsent)
{
    BusRig rig;
    EXPECT_EQ(rig.l1d[0]->peek(A), nullptr);
    rig.bus->commitUpgrade(0, A, true, true);
    ASSERT_NE(rig.l1d[0]->peek(A), nullptr);
    EXPECT_EQ(rig.l1d[0]->peek(A)->state, CoherState::Modified);
}

TEST(Bus, Figure7RateComputesFraction)
{
    BusRig rig(true);
    // One upgrade with ownership (no broadcast), one without.
    rig.l1d[0]->fill(A, CoherState::Exclusive);
    rig.bus->commitUpgrade(0, A, true, true);
    rig.bus->commitUpgrade(0, A + 0x1000, true, true);
    EXPECT_DOUBLE_EQ(rig.bus->writeFilterInvalidateRate.value(), 0.5);
}

// --- prefetch fills -------------------------------------------------------------

TEST(Bus, PrefetchFillInstallsIntoL2)
{
    BusRig rig;
    EXPECT_TRUE(rig.bus->prefetchFill(A));
    ASSERT_NE(rig.l2.peek(A), nullptr);
    EXPECT_TRUE(rig.l2.peek(A)->prefetched);
}

TEST(Bus, PrefetchFillRefusesWhenRemoteOwns)
{
    BusRig rig;
    rig.l1d[1]->fill(A, CoherState::Modified);
    EXPECT_FALSE(rig.bus->prefetchFill(A));
    EXPECT_EQ(rig.l2.peek(A), nullptr);
    EXPECT_EQ(rig.l1d[1]->peek(A)->state, CoherState::Modified);
}

TEST(Bus, PrefetchFillIdempotent)
{
    BusRig rig;
    EXPECT_TRUE(rig.bus->prefetchFill(A));
    EXPECT_FALSE(rig.bus->prefetchFill(A)); // already present
}

// --- helpers ----------------------------------------------------------------------

TEST(Bus, RemoteHoldsExclusiveChecksOtherCoresOnly)
{
    BusRig rig;
    rig.l1d[0]->fill(A, CoherState::Modified);
    EXPECT_FALSE(rig.bus->remoteHoldsExclusive(0, A));
    EXPECT_TRUE(rig.bus->remoteHoldsExclusive(1, A));
}

TEST(Bus, LatencyOrdering)
{
    BusRig rig;
    // Memory fetch must cost more than a subsequent L2 hit.
    SnoopOutcome cold = rig.bus->readRequest(0, A, false, false, true);
    SnoopOutcome warm = rig.bus->readRequest(1, A, false, false, true);
    EXPECT_GT(cold.latency, warm.latency);
}

} // namespace
} // namespace mtrap

/**
 * @file
 * Unit tests for the memory system walks: the central MuonTrap
 * invariants (speculative state confined to filter structures),
 * commit-time write-through, SE upgrades, TLB filtering, probes, and
 * the baseline/insecure-L0 behaviours they contrast with.
 */

#include <gtest/gtest.h>

#include "sim/mem_system.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

struct Rig
{
    explicit Rig(MuonTrapConfig mt = MuonTrapConfig::full(),
                 unsigned cores = 1)
        : root("rig")
    {
        MemSystemParams p;
        p.cores = cores;
        p.mt = mt;
        ms = std::make_unique<MemSystem>(p, &root);
    }

    StatGroup root;
    std::unique_ptr<MemSystem> ms;
};

constexpr Asid kA = 1;
constexpr Addr kV = 0x12345000;

TEST(MemSysMuonTrap, SpeculativeMissFillsFilterOnly)
{
    Rig rig;
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false,
                                            /*speculative=*/true, 0);
    EXPECT_FALSE(r.nacked);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    EXPECT_TRUE(rig.ms->muontrap(0).dataFilter()->presentValid(paddr));
    EXPECT_EQ(rig.ms->l1d(0).peek(paddr), nullptr)
        << "speculative data must not reach the L1";
    EXPECT_EQ(rig.ms->l2().peek(paddr), nullptr)
        << "speculative data must not reach the L2";
    // The filter line is uncommitted and Shared.
    CacheLine *l = rig.ms->muontrap(0).dataFilter()->lookupVirt(kA, kV,
                                                                paddr);
    ASSERT_NE(l, nullptr);
    EXPECT_FALSE(l->committed);
    EXPECT_EQ(l->state, CoherState::Shared);
}

TEST(MemSysMuonTrap, CommitWritesThroughToL1AndL2)
{
    Rig rig;
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                            0);
    rig.ms->commitData(0, kA, kV, 0x10, false, r.tlbMiss, 100);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    EXPECT_NE(rig.ms->l1d(0).peek(paddr), nullptr);
    EXPECT_NE(rig.ms->l2().peek(paddr), nullptr);
    CacheLine *l = rig.ms->muontrap(0).dataFilter()->lookupVirt(kA, kV,
                                                                paddr);
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(l->committed);
    EXPECT_GE(rig.ms->commitWriteThroughs.value(), 1u);
}

TEST(MemSysMuonTrap, SeUpgradePromotesL1ToExclusive)
{
    Rig rig;
    // Cold speculative load: no other holder, so the line is SE.
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                            0);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    CacheLine *fl = rig.ms->muontrap(0).dataFilter()->lookupVirt(kA, kV,
                                                                 paddr);
    ASSERT_NE(fl, nullptr);
    EXPECT_TRUE(fl->sePending);
    rig.ms->commitData(0, kA, kV, 0x10, false, r.tlbMiss, 100);
    ASSERT_NE(rig.ms->l1d(0).peek(paddr), nullptr);
    EXPECT_EQ(rig.ms->l1d(0).peek(paddr)->state, CoherState::Exclusive)
        << "the SE pseudo-state upgrades to E at commit";
    EXPECT_FALSE(fl->sePending);
    EXPECT_GE(rig.ms->seUpgradeRequests.value(), 1u);
}

TEST(MemSysMuonTrap, EvictedBeforeCommitRefetchedIntoL1)
{
    Rig rig;
    // Blow the tiny filter with conflicting speculative fills, then
    // commit the first one.
    DataAccessResult r0 = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                             0);
    for (unsigned i = 1; i <= 8; ++i) {
        // Same filter set: stride = filter size (2KiB) keeps the index.
        rig.ms->dataAccess(0, kA, kV + i * 2048, 0x10, false, true, 0);
    }
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    EXPECT_FALSE(rig.ms->muontrap(0).dataFilter()->presentValid(paddr));
    rig.ms->commitData(0, kA, kV, 0x10, false, r0.tlbMiss, 100);
    EXPECT_NE(rig.ms->l1d(0).peek(paddr), nullptr)
        << "a committed access must appear in the L1 even if its filter "
           "line was evicted (§4.2)";
    EXPECT_GE(rig.ms->recommitFetches.value(), 1u);
}

TEST(MemSysMuonTrap, FilterHitDoesNotTouchL1Replacement)
{
    Rig rig;
    // Fill L1 set with two committed lines A and B (2-way).
    const Addr a = 0x100000, b = a + 512 * 64; // same L1 set
    DataAccessResult ra = rig.ms->dataAccess(0, kA, a, 1, false, true, 0);
    rig.ms->commitData(0, kA, a, 1, false, ra.tlbMiss, 10);
    DataAccessResult rb = rig.ms->dataAccess(0, kA, b, 2, false, true, 20);
    rig.ms->commitData(0, kA, b, 2, false, rb.tlbMiss, 30);
    // Speculatively hit A via its L1 copy repeatedly (filter was flushed
    // first so the hit goes to the L1).
    rig.ms->muontrap(0).flush(FlushReason::Explicit);
    for (int i = 0; i < 10; ++i)
        rig.ms->dataAccess(0, kA, a, 3, false, true, 40 + i);
    // Now fill a third line in the set *committed*: the LRU victim must
    // not have been biased by the speculative hits on A.
    const Addr pa = rig.ms->addressSpace().translate(kA, a);
    ASSERT_NE(rig.ms->l1d(0).peek(pa), nullptr);
}

TEST(MemSysMuonTrap, StoreCommitGetsModifiedAndCountsUpgrade)
{
    Rig rig;
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, true, true,
                                            0);
    rig.ms->commitData(0, kA, kV, 0x10, true, r.tlbMiss, 100);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    ASSERT_NE(rig.ms->l1d(0).peek(paddr), nullptr);
    EXPECT_EQ(rig.ms->l1d(0).peek(paddr)->state, CoherState::Modified);
    EXPECT_EQ(rig.ms->bus().storeUpgrades.value(), 1u);
}

// Commit-ordered prefetcher training (§4.6): only committed filter lines
// train the L2 prefetcher, and only those filled from the L2 or memory
// (the L1 has no prefetcher).

/** Commit a load to the last line of kV's page so the main TLB holds
 *  the translation: later accesses to the page need no walk (whose PTE
 *  reads train the prefetcher too). Returns the prefetcher's training
 *  count afterwards. */
std::uint64_t
warmPage(Rig &rig)
{
    const Addr va = kV + kPageBytes - kLineBytes;
    DataAccessResult r = rig.ms->dataAccess(0, kA, va, 0x20, false,
                                            false, 0);
    rig.ms->commitData(0, kA, va, 0x20, false, r.tlbMiss, 0);
    return rig.ms->prefetcher()->trains.value();
}

// The CommitChannel tests follow a committed filter line down the
// commit-time path from MemSystem to the L2 prefetcher.

TEST(CommitChannel, DeliversL2LevelNotifications)
{
    Rig rig;
    const std::uint64_t base = warmPage(rig);
    AddressSpace &vm = rig.ms->addressSpace();
    // Lines 16..19 of the page sit in the L2, so each load is filled from
    // the L2; committing them in order trains an ascending stride.
    for (Addr i = 0; i < 4; ++i)
        rig.ms->l2().fill(vm.translate(kA, kV + (16 + i) * kLineBytes),
                          CoherState::Shared);
    for (Addr i = 0; i < 4; ++i) {
        const Addr va = kV + (16 + i) * kLineBytes;
        DataAccessResult r = rig.ms->dataAccess(0, kA, va, 0x10, false,
                                                true, 100 * i + 10);
        EXPECT_EQ(r.serviceLevel, 2u);
        EXPECT_EQ(rig.ms->prefetcher()->trains.value(), base + i)
            << "speculative accesses must not train the prefetcher";
        rig.ms->commitData(0, kA, va, 0x10, false, r.tlbMiss,
                           100 * i + 50);
    }
    EXPECT_EQ(rig.ms->prefetcher()->trains.value(), base + 4);
    // The prefetcher was trained through the commit path.
    EXPECT_NE(rig.ms->l2().peek(vm.translate(kA, kV + 20 * kLineBytes)),
              nullptr);
}

TEST(CommitChannel, MemoryLevelTrainsL2Prefetcher)
{
    Rig rig;
    const std::uint64_t base = warmPage(rig);
    const Counter &trains = rig.ms->prefetcher()->trains;
    // Cold line: filled from memory.
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                            10);
    EXPECT_EQ(r.serviceLevel, 3u);
    EXPECT_FALSE(r.tlbMiss);
    EXPECT_EQ(trains.value(), base)
        << "speculative accesses must not train the prefetcher";
    rig.ms->commitData(0, kA, kV, 0x10, false, r.tlbMiss, 100);
    EXPECT_EQ(trains.value(), base + 1);
}

TEST(MemSysMuonTrap, CommitOfL1FillDoesNotTrainPrefetcher)
{
    Rig rig;
    const std::uint64_t base = warmPage(rig);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    rig.ms->l1d(0).fill(paddr, CoherState::Shared);
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                            10);
    EXPECT_EQ(r.serviceLevel, 1u);
    rig.ms->commitData(0, kA, kV, 0x10, false, r.tlbMiss, 100);
    const CacheLine *l =
        rig.ms->muontrap(0).dataFilter()->lookupVirt(kA, kV, paddr);
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(l->committed);
    EXPECT_EQ(rig.ms->prefetcher()->trains.value(), base);
}

TEST(MemSysMuonTrap, CommittedDescendingStrideTrainsNegativeStride)
{
    Rig rig;
    const std::uint64_t base = warmPage(rig);
    // Commit lines 8, 7, 6, 5 of the page in that order: the prefetcher
    // sees them in commit order and prefetches downwards.
    for (Addr i = 0; i < 4; ++i) {
        const Addr va = kV + (8 - i) * kLineBytes;
        DataAccessResult r = rig.ms->dataAccess(0, kA, va, 0x10, false,
                                                true, 100 * i + 10);
        rig.ms->commitData(0, kA, va, 0x10, false, r.tlbMiss,
                           100 * i + 50);
    }
    EXPECT_EQ(rig.ms->prefetcher()->trains.value(), base + 4);
    AddressSpace &vm = rig.ms->addressSpace();
    EXPECT_NE(rig.ms->l2().peek(vm.translate(kA, kV + 4 * kLineBytes)),
              nullptr);
    EXPECT_EQ(rig.ms->l2().peek(vm.translate(kA, kV + 9 * kLineBytes)),
              nullptr);
}

TEST(MemSysMuonTrap, SpeculativeTranslationGoesToFilterTlb)
{
    Rig rig;
    rig.ms->dataAccess(0, kA, kV, 0x10, false, true, 0);
    EXPECT_EQ(rig.ms->dtlb(0).validCount(), 0u)
        << "speculative walks must not install into the main TLB";
    EXPECT_EQ(rig.ms->muontrap(0).filterTlb()->validCount(), 1u);
}

TEST(MemSysMuonTrap, CommitPromotesTranslation)
{
    Rig rig;
    DataAccessResult r = rig.ms->dataAccess(0, kA, kV, 0x10, false, true,
                                            0);
    EXPECT_TRUE(r.tlbMiss);
    rig.ms->commitData(0, kA, kV, 0x10, false, r.tlbMiss, 100);
    EXPECT_EQ(rig.ms->dtlb(0).validCount(), 1u);
}

TEST(MemSysMuonTrap, ContextSwitchClearsFilterStructures)
{
    Rig rig;
    rig.ms->dataAccess(0, kA, kV, 0x10, false, true, 0);
    rig.ms->ifetchAccess(0, kA, 0x400000, 0);
    rig.ms->onContextSwitch(0, 50);
    EXPECT_EQ(rig.ms->muontrap(0).dataFilter()->validLineCount(), 0u);
    EXPECT_EQ(rig.ms->muontrap(0).instFilter()->validLineCount(), 0u);
    EXPECT_EQ(rig.ms->muontrap(0).filterTlb()->validCount(), 0u);
}

TEST(MemSysMuonTrap, IfetchSpeculativeStaysInInstFilter)
{
    Rig rig;
    const Addr code = 0x400000;
    rig.ms->ifetchAccess(0, kA, code, 0);
    const Addr paddr = rig.ms->addressSpace().translate(kA, code);
    EXPECT_TRUE(rig.ms->muontrap(0).instFilter()->presentValid(paddr));
    EXPECT_EQ(rig.ms->l1i(0).peek(paddr), nullptr);
    rig.ms->commitIfetch(0, kA, code, 100);
    EXPECT_NE(rig.ms->l1i(0).peek(paddr), nullptr)
        << "committed instruction lines propagate to the L1I";
}

TEST(MemSysMuonTrap, FilterHitFasterThanL1Hit)
{
    Rig rig;
    DataAccessResult miss = rig.ms->dataAccess(0, kA, kV, 1, false, true,
                                               0);
    DataAccessResult hit = rig.ms->dataAccess(0, kA, kV, 1, false, true,
                                              10);
    EXPECT_LT(hit.latency, miss.latency);
    EXPECT_EQ(hit.serviceLevel, 0u);
    EXPECT_EQ(hit.latency, 1u) << "filter hits are 1 cycle (+0 TLB)";
}

TEST(MemSysMuonTrap, SerialL0AddsLatencyToL1Hit)
{
    // Commit a line into L1, flush the filter, and compare serial vs
    // parallel lookup latency for the L1 hit.
    Rig serial;
    DataAccessResult r = serial.ms->dataAccess(0, kA, kV, 1, false, true,
                                               0);
    serial.ms->commitData(0, kA, kV, 1, false, r.tlbMiss, 10);
    serial.ms->muontrap(0).flush(FlushReason::Explicit);
    const Cycle t_serial =
        serial.ms->dataAccess(0, kA, kV, 1, false, true, 20).latency;

    MuonTrapConfig par = MuonTrapConfig::full();
    par.parallelL0L1 = true;
    Rig parallel(par);
    DataAccessResult r2 = parallel.ms->dataAccess(0, kA, kV, 1, false,
                                                  true, 0);
    parallel.ms->commitData(0, kA, kV, 1, false, r2.tlbMiss, 10);
    parallel.ms->muontrap(0).flush(FlushReason::Explicit);
    const Cycle t_par =
        parallel.ms->dataAccess(0, kA, kV, 1, false, true, 20).latency;

    EXPECT_EQ(t_serial, 3u); // 1 (L0) + 2 (L1)
    EXPECT_EQ(t_par, 2u);    // max(1, 2)
}

// --- baseline behaviours (the contrast) -------------------------------------

TEST(MemSysBaseline, SpeculativeMissFillsL1AndL2)
{
    Rig rig(MuonTrapConfig::off());
    rig.ms->dataAccess(0, kA, kV, 0x10, false, /*speculative=*/true, 0);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    EXPECT_NE(rig.ms->l1d(0).peek(paddr), nullptr)
        << "the unprotected hierarchy caches speculative data";
    EXPECT_NE(rig.ms->l2().peek(paddr), nullptr);
}

TEST(MemSysBaseline, SpeculativeTranslationPollutesTlb)
{
    Rig rig(MuonTrapConfig::off());
    rig.ms->dataAccess(0, kA, kV, 0x10, false, true, 0);
    EXPECT_EQ(rig.ms->dtlb(0).validCount(), 1u);
}

TEST(MemSysInsecureL0, FillsL0AndL1)
{
    Rig rig(MuonTrapConfig::insecureL0());
    rig.ms->dataAccess(0, kA, kV, 0x10, false, true, 0);
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    EXPECT_TRUE(rig.ms->muontrap(0).dataFilter()->presentValid(paddr));
    EXPECT_NE(rig.ms->l1d(0).peek(paddr), nullptr)
        << "an insecure L0 propagates fills to the L1 immediately";
}

// --- probes -------------------------------------------------------------------

TEST(MemSysProbe, DataProbeDoesNotMutate)
{
    Rig rig(MuonTrapConfig::off());
    const Addr paddr = rig.ms->addressSpace().translate(kA, kV);
    const Cycle t1 = rig.ms->dataProbe(0, kA, kV, 0);
    EXPECT_EQ(rig.ms->l1d(0).peek(paddr), nullptr);
    EXPECT_EQ(rig.ms->l2().peek(paddr), nullptr);
    // A mutating access then makes the next probe fast.
    rig.ms->dataAccess(0, kA, kV, 1, false, false, 10);
    const Cycle t2 = rig.ms->dataProbe(0, kA, kV, 20);
    EXPECT_LT(t2, t1);
}

TEST(MemSysProbe, TimeProbeSeesFilterContents)
{
    Rig rig;
    rig.ms->dataAccess(0, kA, kV, 1, false, true, 0);
    EXPECT_EQ(rig.ms->timeProbe(0, kA, kV), 1u);
    rig.ms->muontrap(0).flush(FlushReason::Explicit);
    EXPECT_GT(rig.ms->timeProbe(0, kA, kV), 50u)
        << "after the flush the speculative line is gone everywhere";
}

TEST(MemSysProbe, StoreProbeDistinguishesOwnership)
{
    Rig rig(MuonTrapConfig::off(), 2);
    // Core 0 takes M.
    rig.ms->dataAccess(0, kA, kV, 1, true, false, 0);
    rig.ms->commitData(0, kA, kV, 1, true, false, 10);
    const Cycle own = rig.ms->timeStoreProbe(0, kA, kV);
    const Cycle other = rig.ms->timeStoreProbe(1, kA, kV);
    EXPECT_LT(own, other);
}

// --- functional data ------------------------------------------------------------

TEST(MemSysFunc, ReadWriteThroughAddressSpace)
{
    Rig rig;
    rig.ms->write(kA, 0x8000, 1234);
    EXPECT_EQ(rig.ms->read(kA, 0x8000), 1234u);
    // Different ASID sees different memory (no alias configured).
    EXPECT_NE(rig.ms->read(2, 0x8000), 1234u);
}

TEST(MemSysFunc, SharedAliasGivesSharedData)
{
    Rig rig;
    rig.ms->addressSpace().alias(1, 0x10000, 0x77000000, kPageBytes);
    rig.ms->addressSpace().alias(2, 0x20000, 0x77000000, kPageBytes);
    rig.ms->write(1, 0x10040, 99);
    EXPECT_EQ(rig.ms->read(2, 0x20040), 99u);
}

// Core-attributed reads (the path every core load takes) see each
// functional write at once, whichever core and ASID made it: two cores
// run two ASIDs that alias one physical page.
struct AliasedPair : Rig
{
    AliasedPair() : Rig(MuonTrapConfig::full(), 2)
    {
        ms->addressSpace().alias(1, 0x10000, 0x77000000, kPageBytes);
        ms->addressSpace().alias(2, 0x20000, 0x77000000, kPageBytes);
    }
    std::uint64_t read0(Addr off) { return ms->read(0, 1, 0x10000 + off); }
    std::uint64_t read1(Addr off) { return ms->read(1, 2, 0x20000 + off); }
};

TEST(MemSysFunc, CoreReadSeesOtherAsidWrite)
{
    AliasedPair p;
    const std::uint64_t before = p.read0(0x48);
    p.ms->write(2, 0x20048, before + 1);
    EXPECT_EQ(p.read0(0x48), before + 1);
    EXPECT_EQ(p.read1(0x48), before + 1);
    // The neighbouring words of the line are untouched.
    p.ms->write(1, 0x10040, 7);
    EXPECT_EQ(p.read1(0x40), 7u);
    EXPECT_EQ(p.read0(0x48), before + 1);
}

TEST(MemSysFunc, CoreReadWriteReadSameLine)
{
    AliasedPair p;
    for (std::uint64_t v = 1; v <= 20; ++v) {
        const Addr off = 0x80 + 8 * (v % 8);
        p.read0(off);
        p.read1(off);
        p.ms->write(v % 2 ? 1 : 2, (v % 2 ? 0x10000 : 0x20000) + off,
                    v * 1000);
        EXPECT_EQ(p.read0(off), v * 1000) << v;
        EXPECT_EQ(p.read1(off), v * 1000) << v;
    }
}

TEST(MemSysFunc, CoreReadAfterContextSwitch)
{
    AliasedPair p;
    p.ms->write(1, 0x100c0, 5);
    EXPECT_EQ(p.read0(0xc0), 5u);
    p.ms->onContextSwitch(0, 100);
    p.ms->write(2, 0x200c0, 6);
    EXPECT_EQ(p.read0(0xc0), 6u);
    p.ms->onContextSwitch(1, 200);
    EXPECT_EQ(p.read1(0xc0), 6u);
}

TEST(MemSysFunc, CoreReadAfterSnapshotRestore)
{
    AliasedPair p;
    p.ms->write(1, 0x10100, 11);
    EXPECT_EQ(p.read0(0x100), 11u);
    Serializer s;
    s.beginSection(kTagMemSystem);
    p.ms->saveState(s);
    s.endSection();
    const std::vector<std::uint8_t> img = frameSnapshot(s, 1, 2);

    p.ms->write(2, 0x20100, 12);
    EXPECT_EQ(p.read0(0x100), 12u);
    EXPECT_EQ(p.read1(0x100), 12u);

    Deserializer d(img, 1, 2);
    d.beginSection(kTagMemSystem);
    p.ms->restoreState(d);
    d.endSection();
    EXPECT_EQ(p.read0(0x100), 11u);
    EXPECT_EQ(p.read1(0x100), 11u);
}

} // namespace
} // namespace mtrap

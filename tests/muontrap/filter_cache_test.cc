/**
 * @file
 * Unit tests for the speculative filter cache: committed bits, flash
 * clear, virtual/physical dual tagging, alias displacement, S-only
 * states, and the MuonTrapCore clearing policy.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "muontrap/controller.hh"
#include "muontrap/filter_cache.hh"

namespace mtrap
{
namespace
{

CacheParams
defaults()
{
    return MuonTrapConfig{}.dataParams; // 2KiB 4-way, paper Table 1
}

TEST(FilterCache, SpeculativeFillSetsUncommitted)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    CacheLine &l = f.fillVirt(1, 0x1000, 0x9000, /*speculative=*/true, 2,
                              false);
    EXPECT_FALSE(l.committed);
    EXPECT_EQ(l.state, CoherState::Shared);
    EXPECT_EQ(l.fillLevel, 2);
    EXPECT_EQ(f.speculativeFills.value(), 1u);
}

TEST(FilterCache, NonSpeculativeFillIsCommitted)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    CacheLine &l = f.fillVirt(1, 0x1000, 0x9000, false, 1, false);
    EXPECT_TRUE(l.committed);
    EXPECT_EQ(f.committedFills.value(), 1u);
}

TEST(FilterCache, VirtualLookupRequiresBothTags)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    f.fillVirt(1, 0x1000, 0x9000, true, 1, false);
    // Correct (asid, vaddr, paddr) hits.
    EXPECT_NE(f.lookupVirt(1, 0x1000, 0x9000), nullptr);
    // Wrong ASID misses (another process's alias must not hit).
    EXPECT_EQ(f.lookupVirt(2, 0x1000, 0x9000), nullptr);
    // Same physical line through a different virtual address misses on
    // the CPU side.
    EXPECT_EQ(f.lookupVirt(1, 0x5000, 0x9000), nullptr);
}

TEST(FilterCache, PhysicalFillDisplacesAlias)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    f.fillVirt(1, 0x1000, 0x9000, true, 1, false);
    // Fill the same physical line under a different virtual tag: only
    // one copy of the physical line may exist (§4.4).
    f.fillVirt(1, 0x5000, 0x9000, true, 1, false);
    EXPECT_EQ(f.aliasOverwrites.value(), 1u);
    EXPECT_EQ(f.lookupVirt(1, 0x1000, 0x9000), nullptr);
    EXPECT_NE(f.lookupVirt(1, 0x5000, 0x9000), nullptr);
    EXPECT_EQ(f.validLineCount(), 1u);
}

TEST(FilterCache, FlashClearHidesEverything)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    for (Addr a = 0; a < 8 * kLineBytes; a += kLineBytes)
        f.fillVirt(1, 0x1000 + a, 0x9000 + a, true, 1, false);
    EXPECT_GT(f.validLineCount(), 0u);
    f.flashClear();
    EXPECT_EQ(f.validLineCount(), 0u);
    for (Addr a = 0; a < 8 * kLineBytes; a += kLineBytes) {
        EXPECT_EQ(f.lookupVirt(1, 0x1000 + a, 0x9000 + a), nullptr);
        EXPECT_FALSE(f.presentValid(0x9000 + a));
    }
    EXPECT_EQ(f.flashClearCount(), 1u);
}

TEST(FilterCache, FlashClearIsIdempotent)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    f.flashClear();
    f.flashClear();
    EXPECT_EQ(f.flashClearCount(), 2u);
    EXPECT_EQ(f.validLineCount(), 0u);
}

TEST(FilterCache, PhysicalInvalidateClearsValidBit)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    f.fillVirt(1, 0x1000, 0x9000, true, 1, false);
    // Coherence-side invalidation addresses the cache physically.
    Cache &as_cache = f;
    EXPECT_TRUE(as_cache.invalidate(0x9000));
    EXPECT_EQ(f.lookupVirt(1, 0x1000, 0x9000), nullptr);
    EXPECT_FALSE(f.presentValid(0x9000));
}

TEST(FilterCache, UncommittedEvictionCounted)
{
    StatGroup g("g");
    CacheParams p = defaults();
    p.sizeBytes = 256; // 4 lines, 4-way: one set
    FilterCache f(p, &g);
    for (unsigned i = 0; i < 5; ++i)
        f.fillVirt(1, 0x1000 + i * 0x100, 0x9000 + i * 0x100, true, 1,
                   false);
    EXPECT_EQ(f.uncommittedEvictions.value(), 1u);
}

TEST(FilterCache, CommittedEvictionNotCountedAsUncommitted)
{
    StatGroup g("g");
    CacheParams p = defaults();
    p.sizeBytes = 256;
    FilterCache f(p, &g);
    for (unsigned i = 0; i < 5; ++i)
        f.fillVirt(1, 0x1000 + i * 0x100, 0x9000 + i * 0x100,
                   /*speculative=*/false, 1, false);
    EXPECT_EQ(f.uncommittedEvictions.value(), 0u);
}

TEST(FilterCache, SePendingAnnotationStored)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    CacheLine &l = f.fillVirt(1, 0x1000, 0x9000, true, 3, true);
    EXPECT_TRUE(l.sePending);
    // SE behaves as Shared to the protocol: functional state is S.
    EXPECT_EQ(l.state, CoherState::Shared);
}

TEST(FilterCache, NeverDirty)
{
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    CacheLine &l = f.fillVirt(1, 0x1000, 0x9000, true, 1, false);
    EXPECT_FALSE(l.dirty) << "write-through filter lines are never dirty";
}

// --- flash-clear constant-time property (the §4.3 argument) -----------------

TEST(FilterCache, FlashClearCostIndependentOfOccupancy)
{
    // Structural check: flashClear touches only the valid-bit array, so
    // the amount of work is the line count, not the valid count. We
    // assert the observable contract: clear with 1 valid line and with
    // a full cache both leave 0 valid lines and count one clear each.
    StatGroup g("g");
    FilterCache f(defaults(), &g);
    f.fillVirt(1, 0x1000, 0x9000, true, 1, false);
    f.flashClear();
    EXPECT_EQ(f.validLineCount(), 0u);

    for (Addr a = 0; a < 32 * kLineBytes; a += kLineBytes)
        f.fillVirt(1, 0x10000 + a, 0x90000 + a, true, 1, false);
    f.flashClear();
    EXPECT_EQ(f.validLineCount(), 0u);
    EXPECT_EQ(f.flashClearCount(), 2u);
}

// --- MuonTrapCore clearing policy -------------------------------------------

TEST(MuonTrapCore, FullConfigCreatesAllStructures)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::full(), 0, &g);
    EXPECT_NE(mt.dataFilter(), nullptr);
    EXPECT_NE(mt.instFilter(), nullptr);
    EXPECT_NE(mt.filterTlb(), nullptr);
}

TEST(MuonTrapCore, OffConfigCreatesNothing)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::off(), 0, &g);
    EXPECT_EQ(mt.dataFilter(), nullptr);
    EXPECT_EQ(mt.instFilter(), nullptr);
    EXPECT_EQ(mt.filterTlb(), nullptr);
}

TEST(MuonTrapCore, InsecureL0HasDataCacheOnly)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::insecureL0(), 0, &g);
    EXPECT_NE(mt.dataFilter(), nullptr);
    EXPECT_EQ(mt.instFilter(), nullptr);
    EXPECT_EQ(mt.filterTlb(), nullptr);
}

TEST(MuonTrapCore, FlushOnDomainSwitches)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::full(), 0, &g);
    mt.dataFilter()->fillVirt(1, 0x1000, 0x9000, true, 1, false);
    mt.instFilter()->fillVirt(1, 0x2000, 0xa000, true, 1, false);
    mt.filterTlb()->insert(1, 0x1000, 0x9000);

    mt.flush(FlushReason::ContextSwitch);
    EXPECT_EQ(mt.dataFilter()->validLineCount(), 0u);
    EXPECT_EQ(mt.instFilter()->validLineCount(), 0u);
    EXPECT_EQ(mt.filterTlb()->validCount(), 0u);
    EXPECT_EQ(mt.flushCtxSwitch.value(), 1u);
}

TEST(MuonTrapCore, MisspecFlushRespectsConfig)
{
    StatGroup g("g");
    MuonTrapConfig cfg = MuonTrapConfig::full(); // clearOnMisspec off
    MuonTrapCore mt(cfg, 0, &g);
    mt.dataFilter()->fillVirt(1, 0x1000, 0x9000, true, 1, false);
    mt.flush(FlushReason::Misspeculation);
    EXPECT_EQ(mt.dataFilter()->validLineCount(), 1u)
        << "default MuonTrap keeps misspeculated data (§4.10)";
    EXPECT_EQ(mt.flushMisspec.value(), 0u);

    StatGroup g2("g2");
    cfg.clearOnMisspec = true;
    MuonTrapCore mt2(cfg, 0, &g2);
    mt2.dataFilter()->fillVirt(1, 0x1000, 0x9000, true, 1, false);
    mt2.flush(FlushReason::Misspeculation);
    EXPECT_EQ(mt2.dataFilter()->validLineCount(), 0u);
    EXPECT_EQ(mt2.flushMisspec.value(), 1u);
}

TEST(MuonTrapCore, InsecureL0NeverClears)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::insecureL0(), 0, &g);
    mt.dataFilter()->fillVirt(1, 0x1000, 0x9000, false, 1, false);
    mt.flush(FlushReason::ContextSwitch);
    EXPECT_EQ(mt.dataFilter()->validLineCount(), 1u);
}

TEST(MuonTrapCore, SyscallAndSandboxFlushesCounted)
{
    StatGroup g("g");
    MuonTrapCore mt(MuonTrapConfig::full(), 0, &g);
    mt.flush(FlushReason::Syscall);
    mt.flush(FlushReason::Sandbox);
    mt.flush(FlushReason::Explicit);
    EXPECT_EQ(mt.flushSyscall.value(), 1u);
    EXPECT_EQ(mt.flushSandbox.value(), 1u);
    EXPECT_EQ(mt.flushExplicit.value(), 1u);
}

// --- parameterised geometry sweep (figure 5/6 configurations) ---------------

struct GeomParam
{
    std::uint64_t size;
    unsigned assoc;
};

class FilterGeometryTest : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(FilterGeometryTest, FillLookupClearCycleWorks)
{
    StatGroup g("g");
    CacheParams p = defaults();
    p.sizeBytes = GetParam().size;
    p.assoc = GetParam().assoc;
    FilterCache f(p, &g);

    const unsigned lines =
        static_cast<unsigned>(GetParam().size / kLineBytes);
    for (unsigned i = 0; i < 2 * lines; ++i) {
        const Addr va = 0x1000 + static_cast<Addr>(i) * kLineBytes;
        const Addr pa = 0x900000 + static_cast<Addr>(i) * kLineBytes;
        f.fillVirt(1, va, pa, true, 1, false);
        EXPECT_NE(f.lookupVirt(1, va, pa), nullptr);
        EXPECT_LE(f.validLineCount(), lines);
    }
    f.flashClear();
    EXPECT_EQ(f.validLineCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fig5And6Geometries, FilterGeometryTest,
    ::testing::Values(GeomParam{64, 1}, GeomParam{128, 2},
                      GeomParam{256, 4}, GeomParam{512, 8},
                      GeomParam{1024, 16}, GeomParam{2048, 1},
                      GeomParam{2048, 2}, GeomParam{2048, 4},
                      GeomParam{2048, 8}, GeomParam{2048, 16},
                      GeomParam{2048, 32}, GeomParam{4096, 4}),
    [](const auto &info) {
        return strfmt("size%llu_assoc%u",
                      static_cast<unsigned long long>(info.param.size),
                      info.param.assoc);
    });

} // namespace
} // namespace mtrap

/**
 * @file
 * Property-based tests: security invariants that must hold across
 * arbitrary (randomised, seeded) execution under every MuonTrap
 * geometry, checked with parameterised sweeps.
 *
 * The core invariants from the paper:
 *  I1. Filter caches only ever hold lines in the Shared state.
 *  I2. No uncommitted (speculative) line ever appears in a
 *      non-speculative cache (L1/L2 lines are always committed).
 *  I3. After a flash clear, no filter line is observable.
 *  I4. The main TLB never holds a translation that was only used
 *      speculatively (with the filter TLB enabled).
 *  I5. Speculative accesses never change a remote private cache's M/E
 *      state (reduced coherency speculation).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/log.hh"
#include "sim/mem_system.hh"
#include "sim/runner.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

struct PropertyParam
{
    std::uint64_t filterSize;
    unsigned filterAssoc;
    std::uint64_t seed;
};

class FilterInvariantTest : public ::testing::TestWithParam<PropertyParam>
{
  protected:
    void
    SetUp() override
    {
        MuonTrapConfig mt = MuonTrapConfig::full();
        mt.dataParams.sizeBytes = GetParam().filterSize;
        mt.dataParams.assoc = GetParam().filterAssoc;
        mt.instParams.sizeBytes = GetParam().filterSize;
        mt.instParams.assoc = GetParam().filterAssoc;
        MemSystemParams p;
        p.cores = 2;
        p.mt = mt;
        root = std::make_unique<StatGroup>("rig");
        ms = std::make_unique<MemSystem>(p, root.get());
    }

    /** Drive a random mixture of speculative/committed accesses from
     *  both cores. Returns the set of vaddrs that were committed. */
    void
    randomTraffic(unsigned ops)
    {
        Rng rng(GetParam().seed);
        for (unsigned i = 0; i < ops; ++i) {
            const CoreId core = static_cast<CoreId>(rng.below(2));
            const Asid asid = 1 + static_cast<Asid>(rng.below(2));
            const Addr vaddr = 0x10000000 + rng.below(256) * kLineBytes;
            const bool store = rng.chance(0.3);
            const bool commit = rng.chance(0.5);
            DataAccessResult r = ms->dataAccess(core, asid, vaddr, i,
                                                store, true, i * 4);
            if (!r.nacked && commit)
                ms->commitData(core, asid, vaddr, i, store, r.tlbMiss,
                               i * 4 + 100);
            if (rng.chance(0.05))
                ms->onContextSwitch(core, i * 4 + 200);
            if (rng.chance(0.1))
                ms->ifetchAccess(core, asid, 0x400000 + rng.below(64) * 64,
                                 i * 4);
        }
    }

    void
    checkI1FilterOnlyShared()
    {
        for (CoreId c = 0; c < 2; ++c) {
            auto check = [](CacheLine &l) {
                EXPECT_EQ(l.state, CoherState::Shared)
                    << "I1: filter caches may only hold S";
                EXPECT_FALSE(l.dirty);
            };
            ms->muontrap(c).dataFilter()->forEachLine(check);
            ms->muontrap(c).instFilter()->forEachLine(check);
        }
    }

    void
    checkI2NonSpecCachesCommitted()
    {
        auto check = [](CacheLine &l) {
            EXPECT_TRUE(l.committed)
                << "I2: L1/L2 lines must always be committed";
        };
        for (CoreId c = 0; c < 2; ++c) {
            ms->l1d(c).forEachLine(check);
            ms->l1i(c).forEachLine(check);
        }
        ms->l2().forEachLine(check);
    }

    std::unique_ptr<StatGroup> root;
    std::unique_ptr<MemSystem> ms;
};

TEST_P(FilterInvariantTest, I1FilterOnlySharedUnderRandomTraffic)
{
    randomTraffic(3000);
    checkI1FilterOnlyShared();
}

TEST_P(FilterInvariantTest, I2NoSpeculativeLineInNonSpecCaches)
{
    randomTraffic(3000);
    checkI2NonSpecCachesCommitted();
}

TEST_P(FilterInvariantTest, I3FlashClearLeavesNothingObservable)
{
    randomTraffic(1500);
    for (CoreId c = 0; c < 2; ++c) {
        ms->muontrap(c).flush(FlushReason::ContextSwitch);
        EXPECT_EQ(ms->muontrap(c).dataFilter()->validLineCount(), 0u);
        EXPECT_EQ(ms->muontrap(c).instFilter()->validLineCount(), 0u);
        EXPECT_EQ(ms->muontrap(c).filterTlb()->validCount(), 0u);
    }
}

TEST_P(FilterInvariantTest, I4MainTlbOnlyCommittedTranslations)
{
    // Purely speculative traffic (never committed): the main D-TLB must
    // stay empty.
    Rng rng(GetParam().seed ^ 0xabcd);
    for (unsigned i = 0; i < 500; ++i) {
        const Addr vaddr = 0x40000000 + rng.below(128) * kPageBytes;
        ms->dataAccess(0, 1, vaddr, i, false, true, i * 4);
    }
    EXPECT_EQ(ms->dtlb(0).validCount(), 0u)
        << "I4: speculative-only translations must stay in the filter "
           "TLB";
}

TEST_P(FilterInvariantTest, I5SpeculationNeverDemotesRemoteExclusive)
{
    // Core 1 owns a set of lines in M (committed stores).
    std::vector<Addr> owned;
    for (unsigned i = 0; i < 16; ++i) {
        const Addr vaddr = 0x20000000 + i * kLineBytes;
        DataAccessResult r = ms->dataAccess(1, 1, vaddr, i, true, true,
                                            i * 4);
        ms->commitData(1, 1, vaddr, i, true, r.tlbMiss, i * 4 + 10);
        owned.push_back(vaddr);
    }
    // Core 0 speculatively sprays loads over the same lines.
    for (Addr vaddr : owned)
        ms->dataAccess(0, 1, vaddr, 99, false, true, 1000);
    // Every owned line must still be M in core 1's L1.
    for (Addr vaddr : owned) {
        const Addr paddr = ms->addressSpace().translate(1, vaddr);
        const CacheLine *l = ms->l1d(1).peek(paddr);
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(l->state, CoherState::Modified)
            << "I5: a speculative access demoted a remote M line";
    }
    EXPECT_GT(ms->bus().nacks.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndSeeds, FilterInvariantTest,
    ::testing::Values(PropertyParam{256, 4, 1}, PropertyParam{512, 4, 2},
                      PropertyParam{2048, 4, 3}, PropertyParam{2048, 1, 4},
                      PropertyParam{2048, 32, 5},
                      PropertyParam{4096, 8, 6}, PropertyParam{64, 1, 7},
                      PropertyParam{2048, 4, 8}, PropertyParam{1024, 2, 9},
                      PropertyParam{2048, 4, 10}),
    [](const auto &info) {
        return strfmt("f%llu_a%u_s%llu",
                      static_cast<unsigned long long>(
                          info.param.filterSize),
                      info.param.filterAssoc,
                      static_cast<unsigned long long>(info.param.seed));
    });

// --- whole-system properties over real programs -----------------------------

class SchemeInvariantTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SchemeInvariantTest, MuonTrapL1NeverHoldsUncommittedLines)
{
    RunOptions opt;
    opt.warmupInstructions = 3'000;
    opt.measureInstructions = 10'000;
    RunOutput out = run({SystemConfig::forScheme(Scheme::MuonTrap),
                         buildSpecWorkload(GetParam()), opt, "mt"});
    auto check = [](CacheLine &l) { EXPECT_TRUE(l.committed); };
    out.system->mem().l1d(0).forEachLine(check);
    out.system->mem().l1i(0).forEachLine(check);
    out.system->mem().l2().forEachLine(check);
}

TEST_P(SchemeInvariantTest, FilterStateSharedAfterRealPrograms)
{
    RunOptions opt;
    opt.warmupInstructions = 3'000;
    opt.measureInstructions = 10'000;
    RunOutput out = run({SystemConfig::forScheme(Scheme::MuonTrap),
                         buildSpecWorkload(GetParam()), opt, "mt"});
    out.system->mem().muontrap(0).dataFilter()->forEachLine(
        [](CacheLine &l) {
            EXPECT_EQ(l.state, CoherState::Shared);
        });
}

INSTANTIATE_TEST_SUITE_P(RepresentativeBenchmarks, SchemeInvariantTest,
                         ::testing::Values("astar", "lbm", "mcf",
                                           "gobmk", "povray", "zeusmp"));

} // namespace
} // namespace mtrap

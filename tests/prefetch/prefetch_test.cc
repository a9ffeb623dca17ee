/**
 * @file
 * Unit tests for the stride prefetcher. Its commit-ordered training
 * under MuonTrap is tested at the memory-system level
 * (tests/sim/memsys_test.cc).
 */

#include <gtest/gtest.h>

#include "coherence/bus.hh"
#include "prefetch/stride_prefetcher.hh"

namespace mtrap
{
namespace
{

struct PfRig
{
    PfRig()
        : root("rig"),
          mem(MemoryParams{}, &root),
          l2(CacheParams{"l2", 256 * 1024, 8, 20, 16}, &root)
    {
        bus = std::make_unique<CoherenceBus>(BusParams{}, &l2, &mem,
                                             &root);
        BusNode n;
        l1d = std::make_unique<Cache>(CacheParams{"l1d", 4096, 2, 2, 4},
                                      &root);
        l1i = std::make_unique<Cache>(CacheParams{"l1i", 4096, 2, 1, 4},
                                      &root);
        n.l1d = l1d.get();
        n.l1i = l1i.get();
        bus->addNode(n);
        pf = std::make_unique<StridePrefetcher>(PrefetcherParams{},
                                                bus.get(), &root);
    }

    StatGroup root;
    MainMemory mem;
    Cache l2;
    std::unique_ptr<Cache> l1d, l1i;
    std::unique_ptr<CoherenceBus> bus;
    std::unique_ptr<StridePrefetcher> pf;
};

constexpr Addr kPc = 0x100;
constexpr Addr kBase = 0x40000;

TEST(StridePrefetcher, DetectsUnitStride)
{
    PfRig rig;
    // threshold 2: the third access (second consistent stride) issues.
    rig.pf->train(kPc, kBase);
    rig.pf->train(kPc, kBase + 64);
    EXPECT_EQ(rig.pf->issued.value(), 0u);
    rig.pf->train(kPc, kBase + 128);
    EXPECT_GT(rig.pf->issued.value(), 0u);
    // degree 2: lines +1 and +2 beyond the last access.
    EXPECT_NE(rig.l2.peek(kBase + 192), nullptr);
    EXPECT_NE(rig.l2.peek(kBase + 256), nullptr);
}

TEST(StridePrefetcher, DetectsLargeStride)
{
    PfRig rig;
    const std::int64_t stride = 4 * 64;
    for (int i = 0; i < 4; ++i)
        rig.pf->train(kPc, kBase + i * stride);
    EXPECT_NE(rig.l2.peek(kBase + 3 * stride + stride), nullptr);
}

TEST(StridePrefetcher, NoIssueOnIrregularPattern)
{
    PfRig rig;
    rig.pf->train(kPc, kBase);
    rig.pf->train(kPc, kBase + 64);
    rig.pf->train(kPc, kBase + 1024);
    rig.pf->train(kPc, kBase + 64 * 7);
    rig.pf->train(kPc, kBase + 3);
    EXPECT_EQ(rig.pf->issued.value(), 0u);
}

TEST(StridePrefetcher, SamelineAccessesIgnored)
{
    PfRig rig;
    for (int i = 0; i < 10; ++i)
        rig.pf->train(kPc, kBase + (i % 8));
    EXPECT_EQ(rig.pf->issued.value(), 0u);
}

TEST(StridePrefetcher, DistinctPcsTrackedSeparately)
{
    PfRig rig;
    // Interleave two streams on different PCs; both should train.
    for (int i = 0; i < 4; ++i) {
        rig.pf->train(0x100, kBase + i * 64);
        rig.pf->train(0x101, kBase + 0x10000 + i * 128);
    }
    EXPECT_NE(rig.l2.peek(kBase + 3 * 64 + 64), nullptr);
    EXPECT_NE(rig.l2.peek(kBase + 0x10000 + 3 * 128 + 128), nullptr);
}

TEST(StridePrefetcher, NegativeStrideWorks)
{
    PfRig rig;
    for (int i = 0; i < 4; ++i)
        rig.pf->train(kPc, kBase + (8 - i) * 64);
    // Last access at kBase+5*64, stride -64: next lines are +4 and +3.
    EXPECT_NE(rig.l2.peek(kBase + 4 * 64), nullptr);
}

TEST(StridePrefetcher, ResetForgetsTraining)
{
    PfRig rig;
    rig.pf->train(kPc, kBase);
    rig.pf->train(kPc, kBase + 64);
    rig.pf->reset();
    rig.pf->train(kPc, kBase + 128);
    EXPECT_EQ(rig.pf->issued.value(), 0u);
}

} // namespace
} // namespace mtrap

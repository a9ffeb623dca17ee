/**
 * @file
 * Unit tests for the generic cache: geometry, lookup/fill/evict, LRU
 * replacement and MSHR accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

CacheParams
smallCache(unsigned size_bytes = 1024, unsigned assoc = 2)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = size_bytes;
    p.assoc = assoc;
    p.hitLatency = 2;
    p.mshrs = 2;
    return p;
}

TEST(Cache, GeometryComputed)
{
    StatGroup g("g");
    Cache c(smallCache(1024, 2), &g);
    EXPECT_EQ(c.numSets(), 8u);   // 1024 / (2 * 64)
    EXPECT_EQ(c.numWays(), 2u);
}

TEST(Cache, MissThenHit)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    EXPECT_EQ(c.lookup(0x1000), nullptr);
    c.fill(0x1000, CoherState::Shared);
    CacheLine *l = c.lookup(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CoherState::Shared);
    EXPECT_EQ(l->ptag, lineNum(0x1000));
}

TEST(Cache, LookupMatchesWholeLine)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.fill(0x1000, CoherState::Shared);
    // Any byte within the same 64B line hits.
    EXPECT_NE(c.lookup(0x1004), nullptr);
    EXPECT_NE(c.lookup(0x103f), nullptr);
    EXPECT_EQ(c.lookup(0x1040), nullptr);
}

TEST(Cache, PeekDoesNotTouchReplacement)
{
    StatGroup g("g");
    Cache c(smallCache(1024, 2), &g);
    // Two lines in the same set (set stride = 8 sets * 64B = 512B).
    c.fill(0x0000, CoherState::Shared);
    c.fill(0x0200, CoherState::Shared);
    // Make 0x0000 the LRU victim, then peek it many times: peeks must
    // not refresh it.
    c.lookup(0x0200);
    for (int i = 0; i < 10; ++i)
        c.peek(0x0000);
    Eviction ev;
    c.fill(0x0400, CoherState::Shared, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.ptag, lineNum(0x0000));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    StatGroup g("g");
    Cache c(smallCache(1024, 2), &g);
    c.fill(0x0000, CoherState::Shared);
    c.fill(0x0200, CoherState::Shared);
    c.lookup(0x0000); // refresh way 0
    Eviction ev;
    c.fill(0x0400, CoherState::Shared, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.ptag, lineNum(0x0200));
    EXPECT_NE(c.peek(0x0000), nullptr);
    EXPECT_EQ(c.peek(0x0200), nullptr);
}

TEST(Cache, LruVictimSequencePinned)
{
    // One 4-way set (256 B = 1 set x 4 ways x 64 B). Fills, hits,
    // refills of a present line and peeks interleave; every fill into
    // the full set must evict the least recently filled or hit line,
    // and peeks and missing lookups must not count as uses. Pinned so
    // any change to when a line's recency advances shows here.
    StatGroup g("g");
    Cache c(smallCache(256, 4), &g);
    ASSERT_EQ(c.numSets(), 1u);
    enum class Op { Fill, Hit, Peek };
    const std::vector<std::pair<Op, Addr>> ops = {
        {Op::Fill, 0}, {Op::Fill, 1}, {Op::Fill, 2}, {Op::Fill, 3},
        {Op::Hit, 0},  {Op::Peek, 1}, {Op::Fill, 4}, {Op::Fill, 2},
        {Op::Fill, 5}, {Op::Hit, 4},  {Op::Peek, 0}, {Op::Peek, 0},
        {Op::Fill, 6}, {Op::Hit, 2},  {Op::Fill, 7}, {Op::Hit, 5},
        {Op::Fill, 6}, {Op::Fill, 1}, {Op::Fill, 8}};
    std::vector<Addr> evicted;
    for (const auto &[op, line] : ops) {
        const Addr paddr = line * kLineBytes;
        if (op == Op::Hit) {
            c.lookup(paddr);
        } else if (op == Op::Peek) {
            c.peek(paddr);
        } else {
            Eviction ev;
            c.fill(paddr, CoherState::Shared, &ev);
            if (ev.valid)
                evicted.push_back(ev.ptag);
        }
    }
    EXPECT_EQ(evicted, (std::vector<Addr>{1, 3, 0, 5, 4, 2}));
    EXPECT_EQ(c.evictions.value(), 6u);
}

TEST(Cache, RefillUpdatesStateWithoutEviction)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.fill(0x1000, CoherState::Shared);
    Eviction ev;
    CacheLine &l = c.fill(0x1000, CoherState::Modified, &ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(l.state, CoherState::Modified);
    EXPECT_EQ(c.validLineCount(), 1u);
}

TEST(Cache, InvalidateSpecificLine)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.fill(0x1000, CoherState::Exclusive);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_EQ(c.peek(0x1000), nullptr);
    EXPECT_EQ(c.invalidations.value(), 1u);
}

TEST(Cache, InvalidateAllClearsEverything)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    for (Addr a = 0; a < 16 * kLineBytes; a += kLineBytes)
        c.fill(a, CoherState::Shared);
    EXPECT_EQ(c.validLineCount(), 16u);
    c.invalidateAll();
    EXPECT_EQ(c.validLineCount(), 0u);
}

TEST(Cache, EvictionReportsDirtyState)
{
    StatGroup g("g");
    Cache c(smallCache(1024, 2), &g);
    CacheLine &l = c.fill(0x0000, CoherState::Modified);
    l.dirty = true;
    c.fill(0x0200, CoherState::Shared);
    c.lookup(0x0200);
    c.lookup(0x0200);
    Eviction ev;
    c.fill(0x0400, CoherState::Shared, &ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.state, CoherState::Modified);
}

TEST(Cache, ForEachLineVisitsValidOnly)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.fill(0x0000, CoherState::Shared);
    c.fill(0x1000, CoherState::Shared);
    c.invalidate(0x0000);
    unsigned count = 0;
    c.forEachLine([&count](CacheLine &) { ++count; });
    EXPECT_EQ(count, 1u);
}

TEST(Cache, LazySetInitIsInvisibleToProbes)
{
    // Line storage is constructed per set on first fill; probes of
    // untouched sets must miss exactly like probes of initialised-but-
    // empty sets, and whole-cache walks must see only filled lines.
    StatGroup g("g");
    Cache c(smallCache(64 * 1024, 2), &g); // 512 sets, mostly untouched
    EXPECT_EQ(c.validLineCount(), 0u);
    EXPECT_EQ(c.lookup(0x0000), nullptr);
    EXPECT_EQ(c.peek(0xbeef00), nullptr);

    // Touch two sets out of 512.
    c.fill(0x1000, CoherState::Shared);
    c.fill(0x2040, CoherState::Modified);
    EXPECT_EQ(c.validLineCount(), 2u);
    unsigned visited = 0;
    c.forEachLine([&visited](CacheLine &l) {
        EXPECT_TRUE(l.valid());
        ++visited;
    });
    EXPECT_EQ(visited, 2u);

    // Sibling way of a touched set is properly default-initialised.
    c.fill(0x1000 + 512 * 64, CoherState::Shared); // same set, 2nd way
    EXPECT_EQ(c.validLineCount(), 3u);

    c.invalidateAll();
    EXPECT_EQ(c.validLineCount(), 0u);
    EXPECT_EQ(c.invalidations.value(), 3u);
}

TEST(Cache, MshrContentionAddsDelay)
{
    StatGroup g("g");
    Cache c(smallCache(), &g); // 2 MSHRs
    EXPECT_EQ(c.reserveMshr(0x0000, 100, 50), 0u);
    EXPECT_EQ(c.reserveMshr(0x1000, 100, 50), 0u);
    // Third concurrent miss (distinct line) at t=100 must wait for the
    // earliest slot (frees at 150).
    EXPECT_EQ(c.reserveMshr(0x2000, 100, 50), 50u);
    EXPECT_EQ(c.mshrStalls.value(), 1u);
}

TEST(Cache, MshrFreesOverTime)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.reserveMshr(0x0000, 0, 10);
    c.reserveMshr(0x1000, 0, 10);
    // At t=20 both slots are free again.
    EXPECT_EQ(c.reserveMshr(0x2000, 20, 10), 0u);
}

TEST(Cache, MshrMergesSameLineMisses)
{
    StatGroup g("g");
    Cache c(smallCache(), &g); // 2 MSHRs
    EXPECT_EQ(c.reserveMshr(0x0000, 100, 50), 0u);
    // A second miss to the same line merges: no slot, no stall, and the
    // data arrives with the first fill (t=150 -> 20 extra cycles for a
    // request issued at t=130 expecting 0 base latency... expressed as
    // delay on top of the caller's miss latency).
    EXPECT_EQ(c.reserveMshr(0x0008, 100, 50), 0u);
    EXPECT_EQ(c.mshrMerges.value(), 1u);
    EXPECT_EQ(c.mshrStalls.value(), 0u);
    // Both real slots still free for other lines.
    EXPECT_EQ(c.reserveMshr(0x1000, 100, 50), 0u);
    EXPECT_EQ(c.mshrStalls.value(), 0u);
}

TEST(Cache, MshrMergeArrivalMatchesFirstFill)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    c.reserveMshr(0x0000, 100, 50); // fill arrives at 150
    // Merged request at t=120 with base latency 10 would finish at 130
    // on its own; it must be delayed to the shared arrival at 150.
    EXPECT_EQ(c.reserveMshr(0x0000, 120, 10), 20u);
}

TEST(Cache, MshrDelaySequencePinned)
{
    // Forty distinct-line misses with scattered issue times and
    // latencies contend for 16 MSHRs: each picks the first slot that
    // frees earliest. Pinned so a slot-selection change that moves
    // any stall shows here.
    StatGroup g("g");
    CacheParams p = smallCache();
    p.mshrs = 16;
    Cache c(p, &g);
    std::vector<Cycle> delays;
    for (unsigned i = 0; i < 40; ++i) {
        const Cycle when = 100 + (i * 7) % 13 + 4 * i;
        const Cycle latency = 50 + (i * 11) % 37;
        delays.push_back(c.reserveMshr(Addr{i} << 12, when, latency));
    }
    const std::vector<Cycle> expect = {
        0, 0, 0, 0, 0, 0,  0,  0, 0,  0, 0, 0, 0, 0, 0,  0, 0, 2, 0,  2,
        1, 9, 1, 6, 0, 10, 15, 7, 11, 1, 6, 0, 3, 2, 10, 4, 7, 3, 12, 17};
    EXPECT_EQ(delays, expect);
    EXPECT_EQ(c.mshrStalls.value(), 20u);
}

TEST(Cache, MshrMergesPinnedAcrossErase)
{
    // A 4-MSHR cache takes 120 distinct-line misses whose issue times
    // step backwards every few accesses, the way wrong-path issues run
    // "in the past", so the in-flight map passes its erase threshold
    // (8 entries per MSHR) many times. Recent lines are revisited
    // before their fill arrives (a merge while still tracked); lines
    // 50 misses old are revisited at a time before their fill arrived,
    // after the erase has dropped them; and the first 40 lines are
    // revisited long after they arrived. Halfway, the state goes
    // through a snapshot round trip into a fresh cache, which must
    // carry on exactly as the original does. Every delay and both
    // counters are pinned, so a change to the merge rule or to what
    // the erase drops shows here.
    StatGroup g("g");
    CacheParams p = smallCache();
    p.mshrs = 4;
    Cache a(p, &g);
    Cache b(p, &g);
    bool forked = false;
    std::vector<Cycle> delays;
    auto miss = [&](Addr line, Cycle when, Cycle latency) {
        const Cycle d = a.reserveMshr(line << 12, when, latency);
        if (forked) {
            EXPECT_EQ(b.reserveMshr(line << 12, when, latency), d)
                << "line " << line << " at " << when;
        }
        delays.push_back(d);
    };
    auto issue = [](unsigned i) -> Cycle {
        return 1000 + 14 * i - (i % 4) * 20;
    };
    for (unsigned i = 0; i < 120; ++i) {
        if (i == 60) {
            Serializer s;
            s.beginSection(1);
            a.saveState(s);
            s.endSection();
            Deserializer d(frameSnapshot(s, 1, 2), 1, 2);
            d.beginSection(1);
            b.restoreState(d);
            d.endSection();
            forked = true;
        }
        miss(i, issue(i), 30 + (i * 13) % 29);
        if (i % 3 == 2)
            miss(i - 2, issue(i) + 5, 45);
        if (i >= 50 && i % 5 == 0)
            miss(i - 50, issue(i - 50) + 10, 45);
    }
    for (unsigned i = 0; i < 40; ++i)
        miss(i, issue(119) + 400 + 12 * i, 45);
    const std::vector<Cycle> expect = {
        0,   0,  0,   0,  0,  0,   0,   0,  0,  49, 0,  0,  3,  21,  46,
        0,   0,  0,   9,  3,  47,  0,   0,  0,  4,  42, 0,  0,  0,   25,
        54,  4,  0,   8,  24, 14,  37,  0,  2,  0,  17, 44, 0,  0,   0,
        38,  58, 15,  0,  0,  19,  0,   52, 0,  0,  0,  0,  40, 0,   0,
        7,   16, 54,  4,  0,  1,   8,   7,  674, 56, 0,  3,  0,  13,  55,
        705, 0,  0,   32, 42, 51,  40,  0,  734, 22, 32, 18, 67, 0,   6,
        0,   753, 42, 52, 0,  0,   12,  21, 683, 62, 31, 0,  13, 22,  0,
        56,  710, 0,  8,  0,  42,  49,  0,  0,  721, 23, 44, 54, 24,  0,
        6,   752, 40, 11, 51, 0,   11,  0,  19, 680, 61, 0,  0,  13,  49,
        58,  25, 718, 1,  21, 43,  0,   50, 0,  733, 23, 0,  44, 66,  0,
        0,   5,  763, 39, 49, 0,   0,   22, 28, 4,  695, 60, 0,  21,  0,
        34,  54, 706, 0,  3,  32,  39,  48, 37};
    // Then the 40 late revisits, none merged and none stalled.
    ASSERT_EQ(delays.size(), expect.size() + 40);
    EXPECT_EQ(std::vector<Cycle>(delays.begin(),
                                 delays.begin() + expect.size()),
              expect);
    EXPECT_EQ(std::vector<Cycle>(delays.begin() + expect.size(),
                                 delays.end()),
              std::vector<Cycle>(40, 0));
    EXPECT_EQ(a.mshrMerges.value(), 31u);
    EXPECT_EQ(a.mshrStalls.value(), 94u);
    // Counted since the fork only.
    EXPECT_EQ(b.mshrMerges.value(), 18u);
    EXPECT_EQ(b.mshrStalls.value(), 59u);
}

TEST(Cache, StatsCountFills)
{
    StatGroup g("g");
    Cache c(smallCache(1024, 2), &g);
    c.fill(0x0000, CoherState::Shared);
    c.fill(0x0200, CoherState::Shared);
    c.fill(0x0400, CoherState::Shared); // evicts
    EXPECT_EQ(c.fills.value(), 3u);
    EXPECT_EQ(c.evictions.value(), 1u);
}

TEST(CacheDeath, FillInvalidPanics)
{
    StatGroup g("g");
    Cache c(smallCache(), &g);
    EXPECT_DEATH(c.fill(0x1000, CoherState::Invalid), "Invalid");
}

TEST(Cache, VictimIsAlwaysInSet)
{
    StatGroup g("g");
    Cache c(smallCache(2048, 4), &g);
    // Fill far beyond capacity; every fill must succeed and the cache
    // must never exceed its capacity.
    for (Addr a = 0; a < 256 * kLineBytes; a += kLineBytes) {
        c.fill(a, CoherState::Shared);
        EXPECT_LE(c.validLineCount(), 32u);
    }
    EXPECT_EQ(c.validLineCount(), 32u);
}

TEST(Cache, HitAfterFillAlwaysWorks)
{
    StatGroup g("g");
    Cache c(smallCache(2048, 4), &g);
    for (Addr a = 0; a < 64 * kLineBytes; a += kLineBytes) {
        c.fill(a, CoherState::Shared);
        EXPECT_NE(c.lookup(a), nullptr)
            << "line just filled must be present";
    }
}

TEST(Cache, WorkingSetWithinCapacityNeverEvicts)
{
    StatGroup g("g");
    Cache c(smallCache(2048, 4), &g);
    // 8 sets * 4 ways; touch 8 distinct sets x 4 tags = exactly full.
    for (unsigned tag = 0; tag < 4; ++tag)
        for (unsigned set = 0; set < 8; ++set)
            c.fill((tag * 8 + set) * 64, CoherState::Shared);
    EXPECT_EQ(c.evictions.value(), 0u);
    EXPECT_EQ(c.validLineCount(), 32u);
}

} // namespace
} // namespace mtrap

/**
 * @file
 * Unit tests for the common runtime: types helpers, the first-minimum
 * scan, logging format, statistics and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/first_min.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{
namespace
{

// --- types ------------------------------------------------------------------

TEST(Types, LineAlignment)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(128), 2u);
}

TEST(Types, PageAlignment)
{
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageNum(8192), 2u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(2048));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(2049));
}

TEST(Types, Log2)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(2048), 11u);
}

TEST(FirstMin, PicksTheElementMinElementPicks)
{
    // Few distinct values, so most arrays hold ties: the lowest index
    // among them must win, because the chosen functional unit or MSHR
    // is saved in snapshot images.
    Rng rng(7);
    Cycle v[16];
    for (int trial = 0; trial < 2000; ++trial) {
        const unsigned n = 1 + static_cast<unsigned>(rng.below(16));
        for (unsigned i = 0; i < n; ++i)
            v[i] = rng.below(4) == 0 ? kCycleNever : rng.below(3);
        const FirstMin m = firstMin(v, n);
        const Cycle *ref = std::min_element(v, v + n);
        ASSERT_EQ(m.index, static_cast<unsigned>(ref - v)) << trial;
        ASSERT_EQ(m.value, *ref) << trial;
    }
}

// --- logging ------------------------------------------------------------------

TEST(Log, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "abc"), "x=42 y=abc");
    EXPECT_EQ(strfmt("%llu", 123456789012345ull), "123456789012345");
    EXPECT_EQ(strfmt("plain"), "plain");
}

// --- stats --------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    StatGroup g("g");
    Counter c(&g, "c", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    StatGroup g("g");
    Average a(&g, "a", "an average");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

namespace
{

struct RatioCtx
{
    Counter *a;
    Counter *b;
};

double
ratioFormula(const void *ctx)
{
    const RatioCtx *r = static_cast<const RatioCtx *>(ctx);
    return r->b->value() ? static_cast<double>(r->a->value())
                               / static_cast<double>(r->b->value())
                         : 0.0;
}

} // namespace

TEST(Stats, FormulaComputesOnDemand)
{
    StatGroup g("g");
    Counter a(&g, "a", "");
    Counter b(&g, "b", "");
    RatioCtx ctx{&a, &b};
    Formula f(&g, "f", "ratio", &ratioFormula, &ctx);
    a += 3;
    b += 4;
    EXPECT_DOUBLE_EQ(f.value(), 0.75);
}

TEST(Stats, GroupDumpContainsPathAndFind)
{
    StatGroup root("system");
    StatGroup child("l1", &root);
    Counter c(&child, "hits", "hit count");
    c += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("system.l1.hits = 7"), std::string::npos);
    EXPECT_EQ(child.path(), "system.l1");
    EXPECT_FALSE(root.find("hits")); // lives in the child group
    EXPECT_TRUE(child.find("hits"));
}

TEST(Stats, FindLocatesLocalStatsOnly)
{
    StatGroup root("r");
    StatGroup child("c", &root);
    Counter c(&child, "x", "");
    EXPECT_FALSE(root.find("x"));
    EXPECT_TRUE(child.find("x"));
}

TEST(Stats, ResetAllRecurses)
{
    StatGroup root("r");
    StatGroup child("c", &root);
    Counter a(&root, "a", "");
    Counter b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng r(17);
    unsigned buckets[4] = {0, 0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.below(4)];
    for (unsigned b : buckets) {
        EXPECT_GT(b, n / 4 - n / 20);
        EXPECT_LT(b, n / 4 + n / 20);
    }
}

} // namespace
} // namespace mtrap

/**
 * @file
 * Acceptance tests for the interned stat schema + zero-allocation
 * telemetry sheets: once the process is warm (every component type's
 * schema registered, every runtime group name interned), constructing a
 * System must build ZERO stat-name strings — the cost the refactor
 * removed from the sweep-churn hot path. Also locks down schema/sheet
 * separation (instances share defs, never values) and the StatName
 * interner semantics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "harness/job.hh"
#include "sim/system.hh"

namespace mtrap
{
namespace
{

std::string
textDump(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

TEST(StatSchema, WarmSystemConstructionBuildsNoNameStrings)
{
    // Warm every schema and interned name this configuration uses
    // (first sighting may construct strings — that is the "registered
    // once, at first use" half of the design).
    { System warm(SystemConfig::forScheme(Scheme::MuonTrap, 2)); }

    const std::uint64_t before = StatNames::constructions();
    System sys(SystemConfig::forScheme(Scheme::MuonTrap, 2));
    EXPECT_EQ(StatNames::constructions(), before)
        << "constructing a warm System built stat-name strings";
}

TEST(StatSchema, WarmChurnAcrossSchemesBuildsNoNameStrings)
{
    // The attack-vignette / sweep shape: alternating schemes, repeated
    // build+teardown. After one warm lap, the whole loop must not
    // construct a single stat-name string.
    const Scheme schemes[] = {Scheme::Baseline, Scheme::MuonTrap,
                              Scheme::InvisiSpecSpectre,
                              Scheme::SttSpectre};
    for (Scheme s : schemes) {
        System warm(SystemConfig::forScheme(s, 1));
    }

    const std::uint64_t before = StatNames::constructions();
    for (unsigned lap = 0; lap < 3; ++lap)
        for (Scheme s : schemes) {
            System sys(SystemConfig::forScheme(s, 1));
        }
    EXPECT_EQ(StatNames::constructions(), before);
}

TEST(StatSchema, InstancesShareDefsButNotValues)
{
    StatGroup pa("a"), pb("b");
    CacheParams params;
    params.name = "shared";
    Cache ca(params, &pa);
    Cache cb(params, &pb);

    ++ca.hits;
    ++ca.hits;
    EXPECT_EQ(ca.hits.value(), 2u);
    EXPECT_EQ(cb.hits.value(), 0u) << "sheet storage leaked across "
                                      "instances of one schema";

    std::ostringstream osa, osb;
    ca.fill(0x1000, CoherState::Exclusive);
    pa.dump(osa);
    pb.dump(osb);
    EXPECT_NE(osa.str().find("a.shared.hits = 2"), std::string::npos);
    EXPECT_NE(osb.str().find("b.shared.hits = 0"), std::string::npos);
    EXPECT_NE(osb.str().find("b.shared.fills = 0"), std::string::npos);
}

TEST(StatSchema, FreshSystemsDumpIdentically)
{
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);
    System a(cfg), b(cfg);
    EXPECT_EQ(textDump(a), textDump(b));
}

TEST(StatName, InternedNamesAreStableAndDeduplicated)
{
    const StatName a = StatName::indexed("l9q", 3);
    EXPECT_EQ(a.str(), "l9q3");
    const std::uint64_t before = StatNames::constructions();
    const StatName b = StatName::indexed("l9q", 3);
    EXPECT_EQ(StatNames::constructions(), before)
        << "re-interning a known name constructed a string";
    EXPECT_EQ(a.id(), b.id());

    const StatName c = a.withSuffix("_filter");
    EXPECT_EQ(c.str(), "l9q3_filter");
    EXPECT_EQ(a.withSuffix("_filter").id(), c.id());
}

TEST(StatSchema, ResetAllZeroesEveryKind)
{
    StatGroup g("g");
    Counter c(&g, "c", "");
    Average a(&g, "a", "");
    c += 7;
    a.sample(2.5);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

} // namespace
} // namespace mtrap

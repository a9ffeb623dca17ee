/**
 * @file
 * Whole-suite smoke tests: every bundled benchmark profile runs under
 * the key schemes without panics, with sane IPC and the MuonTrap
 * structural invariants intact at the end. Parameterised over all 26
 * SPEC-like and 7 Parsec-like workloads.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

RunOptions
smokeOptions()
{
    RunOptions opt;
    opt.warmupInstructions = 2'000;
    opt.measureInstructions = 8'000;
    return opt;
}

class SpecSmokeTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecSmokeTest, RunsUnderBaselineAndMuonTrap)
{
    const Workload w = buildSpecWorkload(GetParam());
    const RunResult base =
        run({SystemConfig::forScheme(Scheme::Baseline), w, smokeOptions()})
            .result;
    EXPECT_GT(base.ipc, 0.01);
    EXPECT_LE(base.ipc, 8.0);

    RunOutput mt = run(
        {SystemConfig::forScheme(Scheme::MuonTrap), w, smokeOptions(), "mt"});
    EXPECT_GT(mt.result.ipc, 0.01);

    // Structural security invariants after real execution.
    mt.system->mem().muontrap(0).dataFilter()->forEachLine(
        [](CacheLine &l) {
            EXPECT_EQ(l.state, CoherState::Shared);
        });
    mt.system->mem().l1d(0).forEachLine(
        [](CacheLine &l) { EXPECT_TRUE(l.committed); });
    mt.system->mem().l2().forEachLine(
        [](CacheLine &l) { EXPECT_TRUE(l.committed); });
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProfiles, SpecSmokeTest,
    ::testing::ValuesIn(specBenchmarkNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

class ParsecSmokeTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParsecSmokeTest, RunsOnFourCoresUnderMuonTrap)
{
    const Workload w = buildParsecWorkload(GetParam());
    RunOutput mt = run({SystemConfig::forScheme(Scheme::MuonTrap, 4), w,
                        smokeOptions(), "mt"});
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GE(mt.system->core(c).committedCount(), 8'000u)
            << "core " << c << " fell behind";
        mt.system->mem().muontrap(c).dataFilter()->forEachLine(
            [](CacheLine &l) {
                EXPECT_EQ(l.state, CoherState::Shared);
                EXPECT_FALSE(l.dirty);
            });
    }
}

TEST_P(ParsecSmokeTest, RunsUnderSttAndInvisiSpec)
{
    const Workload w = buildParsecWorkload(GetParam());
    for (Scheme s : {Scheme::SttFuture, Scheme::InvisiSpecFuture})
        EXPECT_GT(
            run({SystemConfig::forScheme(s), w, smokeOptions()}).result.ipc,
            0.01)
            << schemeName(s);
}

INSTANTIATE_TEST_SUITE_P(
    AllParsecProfiles, ParsecSmokeTest,
    ::testing::ValuesIn(parsecBenchmarkNames()),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace mtrap

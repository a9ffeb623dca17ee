/**
 * @file
 * Unit tests for the comparator defence models: the InvisiSpec
 * speculative buffer, scheme descriptors, and end-to-end timing effects
 * of STT/InvisiSpec on the core. STT's taint rules are pinned on the
 * core itself, in tests/cpu/core_test.cc.
 */

#include <gtest/gtest.h>

#include "defense/invisispec.hh"
#include "defense/scheme.hh"
#include "sim/runner.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

// --- SpecBuffer ------------------------------------------------------------------

TEST(SpecBuffer, AllocateAndRelease)
{
    StatGroup g("g");
    SpecBuffer sb(SpecBufferParams{4}, 0, &g);
    EXPECT_EQ(sb.allocate(0x1000, 0), 0u);
    EXPECT_TRUE(sb.holdsWord(0x1000));
    sb.release(0x1000);
    EXPECT_FALSE(sb.holdsWord(0x1000));
}

TEST(SpecBuffer, FullBufferStalls)
{
    StatGroup g("g");
    SpecBuffer sb(SpecBufferParams{2}, 0, &g);
    sb.allocate(0x1000, 0);
    sb.allocate(0x2000, 0);
    EXPECT_GT(sb.allocate(0x3000, 0), 0u);
    EXPECT_EQ(sb.fullStalls.value(), 1u);
    EXPECT_EQ(sb.occupancy(), 2u);
}

TEST(SpecBuffer, WordGranularityNoLineReuse)
{
    // The §6.2 contrast: InvisiSpec's buffer is word-sized, so a
    // different word of the same line is a miss.
    StatGroup g("g");
    SpecBuffer sb(SpecBufferParams{8}, 0, &g);
    sb.allocate(0x1000, 0);
    sb.allocate(0x1008, 0); // same line, next word
    EXPECT_EQ(sb.wordHits.value(), 0u);
    EXPECT_EQ(sb.lineMissesWordGranularity.value(), 1u);
    sb.allocate(0x1000, 0); // exact word again
    EXPECT_EQ(sb.wordHits.value(), 1u);
}

TEST(SpecBuffer, ClearEmptiesEverything)
{
    StatGroup g("g");
    SpecBuffer sb(SpecBufferParams{8}, 0, &g);
    sb.allocate(0x1000, 0);
    sb.allocate(0x2000, 0);
    sb.clear();
    EXPECT_EQ(sb.occupancy(), 0u);
}

// --- scheme descriptors -------------------------------------------------------------

TEST(Scheme, NamesRoundTripThroughParse)
{
    for (Scheme s : allSchemes())
        EXPECT_EQ(parseScheme(schemeName(s)), s);
}

TEST(Scheme, ParseIsCaseAndSeparatorInsensitive)
{
    EXPECT_EQ(parseScheme("muontrap"), Scheme::MuonTrap);
    EXPECT_EQ(parseScheme("invisispec_spectre"),
              Scheme::InvisiSpecSpectre);
    EXPECT_EQ(parseScheme("STT-FUTURE"), Scheme::SttFuture);
}

TEST(Scheme, CoreDefenseMapping)
{
    EXPECT_EQ(schemeCoreDefense(Scheme::Baseline), CoreDefense::None);
    EXPECT_EQ(schemeCoreDefense(Scheme::MuonTrap), CoreDefense::None);
    EXPECT_EQ(schemeCoreDefense(Scheme::SttSpectre),
              CoreDefense::SttSpectre);
    EXPECT_EQ(schemeCoreDefense(Scheme::InvisiSpecFuture),
              CoreDefense::InvisiSpecFuture);
}

TEST(Scheme, MtConfigMapping)
{
    EXPECT_FALSE(schemeMtConfig(Scheme::Baseline).enabled);
    EXPECT_TRUE(schemeMtConfig(Scheme::MuonTrap).protectData);
    EXPECT_FALSE(schemeMtConfig(Scheme::InsecureL0).protectData);
    EXPECT_TRUE(schemeMtConfig(Scheme::InsecureL0).enabled);
    EXPECT_TRUE(schemeMtConfig(Scheme::MuonTrapClearMisspec)
                    .clearOnMisspec);
    EXPECT_TRUE(schemeMtConfig(Scheme::MuonTrapParallel).parallelL0L1);
    EXPECT_FALSE(schemeMtConfig(Scheme::SttSpectre).enabled);
}

// --- end-to-end timing effects -----------------------------------------------------

/** Cycles of `w` under `s`, normalised to the Baseline. */
double
normalizedOn(Scheme s, const Workload &w, const RunOptions &opt)
{
    auto cyclesOn = [&](Scheme scheme) {
        return run({SystemConfig::forScheme(scheme), w, opt}).result;
    };
    return normalizedTime(cyclesOn(s), cyclesOn(Scheme::Baseline));
}

TEST(DefenseTiming, SttSlowsPointerChasingMoreThanCompute)
{
    // STT delays address-dependent loads; a pointer-chase-heavy profile
    // must suffer more than a compute profile (the §6.3 observation).
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 20'000;

    const Workload chase = buildSpecWorkload("mcf");      // chase heavy
    const Workload compute = buildSpecWorkload("gamess"); // compute

    const double chase_norm = normalizedOn(Scheme::SttFuture, chase, opt);
    const double compute_norm =
        normalizedOn(Scheme::SttFuture, compute, opt);
    EXPECT_GT(chase_norm, compute_norm);
    EXPECT_GT(chase_norm, 1.02);
}

TEST(DefenseTiming, InvisiSpecExposuresHappen)
{
    RunOptions opt;
    opt.warmupInstructions = 2'000;
    opt.measureInstructions = 10'000;
    const Workload w = buildSpecWorkload("gobmk"); // branchy -> spec loads
    RunOutput out = run(
        {SystemConfig::forScheme(Scheme::InvisiSpecSpectre), w, opt, "is"});
    EXPECT_GT(out.system->core(0).exposures.value(), 0u);
    EXPECT_GT(out.system->mem().probes.value(), 0u);
}

TEST(DefenseTiming, InvisiSpecFutureSlowerThanSpectreVariant)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 20'000;
    const Workload w = buildSpecWorkload("mcf");
    const double sp = normalizedOn(Scheme::InvisiSpecSpectre, w, opt);
    const double fu = normalizedOn(Scheme::InvisiSpecFuture, w, opt);
    EXPECT_GE(fu, sp * 0.98)
        << "the Future variant exposes at commit and must not be "
           "meaningfully faster than the Spectre variant";
}

TEST(DefenseTiming, SttFutureAtLeastAsSlowAsSttSpectre)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 20'000;
    const Workload w = buildSpecWorkload("astar");
    const double sp = normalizedOn(Scheme::SttSpectre, w, opt);
    const double fu = normalizedOn(Scheme::SttFuture, w, opt);
    EXPECT_GE(fu, sp * 0.98);
}

} // namespace
} // namespace mtrap

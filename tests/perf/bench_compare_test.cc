/**
 * @file
 * BENCH.json regression-gate tests: the comparator must parse what
 * writeBenchJson emits, pass a clean A/A comparison, fail an injected
 * 10% geomean regression, any scenario error or (same mode) any change
 * in simulated work, tolerate suite membership changes, and reject
 * malformed input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "perf/bench_compare.hh"
#include "perf/perf_suite.hh"

namespace mtrap::perf
{
namespace
{

ScenarioResult
makeResult(const std::string &name, double wall_seconds,
           std::uint64_t instructions)
{
    ScenarioResult r;
    r.name = name;
    r.ok = true;
    r.wallSeconds = wall_seconds;
    r.instructions = instructions;
    r.simCycles = instructions * 2;
    return r;
}

std::vector<ScenarioResult>
sampleResults()
{
    return {
        makeResult("spec-gcc", 0.5, 1'000'000),
        makeResult("parsec-canneal", 0.25, 800'000),
        makeResult("attack-vignette", 0.1, 50'000),
    };
}

BenchFile
roundTrip(const std::vector<ScenarioResult> &results,
          const PerfOptions &opt = PerfOptions{})
{
    std::ostringstream os;
    writeBenchJson(results, opt, os);
    BenchFile f;
    std::string err;
    EXPECT_TRUE(parseBenchJson(os.str(), f, err)) << err;
    return f;
}

TEST(BenchCompare, ParsesWhatTheWriterEmits)
{
    const BenchFile f = roundTrip(sampleResults());
    EXPECT_EQ(f.schema, "mtrap-bench-v1");
    ASSERT_EQ(f.scenarios.size(), 3u);
    EXPECT_EQ(f.scenarios[0].name, "spec-gcc");
    EXPECT_TRUE(f.scenarios[0].ok);
    EXPECT_NEAR(f.scenarios[0].wallSeconds, 0.5, 1e-9);
    EXPECT_NEAR(f.scenarios[0].instructionsPerSecond, 2'000'000.0, 1.0);
    EXPECT_TRUE(f.ok);
    EXPECT_GT(f.scoreKips, 0.0);
}

TEST(BenchCompare, CleanAtoARunPasses)
{
    const BenchFile f = roundTrip(sampleResults());
    const CompareReport rep = compareBench(f, f);
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 3u);
    EXPECT_NEAR(rep.geomeanRatio, 1.0, 1e-9);
}

TEST(BenchCompare, TenPercentRegressionFails)
{
    const BenchFile base = roundTrip(sampleResults());
    // Same work, 10% more wall time everywhere: throughput -~9.1%,
    // beyond the 5% gate.
    std::vector<ScenarioResult> slow = sampleResults();
    for (ScenarioResult &r : slow)
        r.wallSeconds *= 1.10;
    const CompareReport rep = compareBench(base, roundTrip(slow));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_LT(rep.geomeanRatio, 0.95);
    EXPECT_NE(rep.text.find("FAIL"), std::string::npos);
}

TEST(BenchCompare, SmallRegressionWithinThresholdPasses)
{
    const BenchFile base = roundTrip(sampleResults());
    std::vector<ScenarioResult> slow = sampleResults();
    for (ScenarioResult &r : slow)
        r.wallSeconds *= 1.03; // ~-2.9% throughput
    const CompareReport rep = compareBench(base, roundTrip(slow));
    EXPECT_TRUE(rep.pass) << rep.text;
}

TEST(BenchCompare, ScenarioErrorFailsEvenWithGoodThroughput)
{
    const BenchFile base = roundTrip(sampleResults());
    std::vector<ScenarioResult> bad = sampleResults();
    bad[1].ok = false;
    bad[1].error = "intentional";
    const CompareReport rep = compareBench(base, roundTrip(bad));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_NE(rep.text.find("scenario errored"), std::string::npos);
}

TEST(BenchCompare, ZeroThroughputCommonScenarioFailsTheGate)
{
    // ok=true but zero instructions: an infinite regression must not
    // silently drop out of the geomean.
    const BenchFile base = roundTrip(sampleResults());
    std::vector<ScenarioResult> dead = sampleResults();
    dead[0].instructions = 0;
    dead[0].simCycles = 0;
    const CompareReport rep = compareBench(base, roundTrip(dead));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_NE(rep.text.find("zero throughput"), std::string::npos);
}

TEST(BenchCompare, SuiteMembershipChangesAreInformationalOnly)
{
    const BenchFile base = roundTrip(sampleResults());
    // Candidate drops one scenario and adds a brand-new one.
    std::vector<ScenarioResult> next = sampleResults();
    next.pop_back();
    next.push_back(makeResult("sched-gang-new", 0.2, 400'000));
    const CompareReport rep = compareBench(base, roundTrip(next));
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 2u);
    EXPECT_NE(rep.text.find("new"), std::string::npos);
    EXPECT_NE(rep.text.find("gone"), std::string::npos);
}

TEST(BenchCompare, NoCommonScenariosPassesWithoutAThroughputVerdict)
{
    const BenchFile base = roundTrip({makeResult("old-only", 0.1, 1000)});
    const BenchFile cand = roundTrip({makeResult("new-only", 0.1, 1000)});
    const CompareReport rep = compareBench(base, cand);
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 0u);
}

TEST(BenchCompare, CustomThresholdIsHonoured)
{
    const BenchFile base = roundTrip(sampleResults());
    std::vector<ScenarioResult> slow = sampleResults();
    for (ScenarioResult &r : slow)
        r.wallSeconds *= 1.03;
    CompareOptions strict;
    strict.maxRegressPct = 1.0;
    const CompareReport rep =
        compareBench(base, roundTrip(slow), strict);
    EXPECT_FALSE(rep.pass) << rep.text;
}

TEST(BenchCompare, EmptyScenarioIntersectionPassesWithUnitGeomean)
{
    // Disjoint suites: nothing to compare must mean "no regression",
    // a geomean ratio of exactly 1.0 and zero common scenarios — not a
    // divide-by-zero, not a vacuous failure.
    const BenchFile base = roundTrip({makeResult("only-old-a", 0.1, 1000),
                                      makeResult("only-old-b", 0.2, 2000)});
    const BenchFile cand = roundTrip({makeResult("only-new-a", 0.1, 1000),
                                      makeResult("only-new-b", 0.2, 2000)});
    const CompareReport rep = compareBench(base, cand);
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 0u);
    EXPECT_DOUBLE_EQ(rep.geomeanRatio, 1.0);
    EXPECT_NE(rep.text.find("no common scenarios"), std::string::npos);
}

TEST(BenchCompare, NanBaselineThroughputIsSkippedNotPropagated)
{
    // A NaN in the previous artifact (hand-edited, or a broken run)
    // must not poison the geomean: log(NaN) would flow into the
    // verdict where `NaN > threshold` is false — silently passing any
    // regression. The poisoned scenario is skipped; the healthy ones
    // still gate.
    BenchFile base = roundTrip(sampleResults());
    base.scenarios[0].instructionsPerSecond =
        std::numeric_limits<double>::quiet_NaN();
    base.scenarios[1].instructionsPerSecond =
        std::numeric_limits<double>::infinity();

    // Candidate regresses 50% on the one comparable scenario.
    std::vector<ScenarioResult> slow = sampleResults();
    slow[2].wallSeconds *= 2.0;
    const CompareReport rep = compareBench(base, roundTrip(slow));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 1u);
    EXPECT_TRUE(std::isfinite(rep.geomeanRatio));
    EXPECT_NE(rep.text.find("baseline has no valid"), std::string::npos);
}

TEST(BenchCompare, ZeroBaselineThroughputIsSkipped)
{
    BenchFile base = roundTrip(sampleResults());
    base.scenarios[0].instructionsPerSecond = 0.0;
    const CompareReport rep =
        compareBench(base, roundTrip(sampleResults()));
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.commonScenarios, 2u);
}

TEST(BenchCompare, NanCandidateThroughputFailsTheGate)
{
    const BenchFile base = roundTrip(sampleResults());
    BenchFile cand = roundTrip(sampleResults());
    cand.scenarios[1].instructionsPerSecond =
        std::numeric_limits<double>::quiet_NaN();
    const CompareReport rep = compareBench(base, cand);
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_NE(rep.text.find("zero throughput"), std::string::npos);
}

TEST(BenchCompare, GeomeanExactlyAtThresholdPasses)
{
    // The gate fails only when the regression *exceeds* the threshold:
    // a geomean of exactly -5.0% must pass (documented boundary, so a
    // future >= typo becomes a test failure, not a flaky CI gate).
    const BenchFile base = roundTrip({makeResult("s", 1.0, 1'000'000)});
    BenchFile cand = base;
    cand.scenarios[0].instructionsPerSecond =
        base.scenarios[0].instructionsPerSecond * 0.95;
    const CompareReport rep = compareBench(base, cand);
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_NEAR(rep.geomeanRatio, 0.95, 1e-12);

    // One ulp below the boundary fails.
    cand.scenarios[0].instructionsPerSecond =
        base.scenarios[0].instructionsPerSecond * 0.9499;
    EXPECT_FALSE(compareBench(base, cand).pass);
}

TEST(BenchCompare, ParsesSimulatedWorkAndRunShape)
{
    PerfOptions opt = PerfOptions::quickPreset();
    const BenchFile f = roundTrip(sampleResults(), opt);
    EXPECT_EQ(f.mode, "quick");
    EXPECT_EQ(f.measureInstructions, opt.measureInstructions);
    EXPECT_EQ(f.warmupInstructions, opt.warmupInstructions);
    EXPECT_EQ(f.scenarios[1].instructions, 800'000u);
    EXPECT_EQ(f.scenarios[1].simCycles, 1'600'000u);

    // The in-process shape carries the same fields as the file.
    const BenchFile g = benchFileFromResults(sampleResults(), opt);
    EXPECT_EQ(g.mode, "quick");
    EXPECT_EQ(g.workVersion, kBenchWorkVersion);
    EXPECT_EQ(g.measureInstructions, opt.measureInstructions);
    EXPECT_EQ(g.scenarios[1].instructions, 800'000u);
    EXPECT_EQ(g.scenarios[1].simCycles, 1'600'000u);
}

TEST(BenchCompare, ChangedSimulatedWorkFailsInTheSameMode)
{
    const BenchFile base = roundTrip(sampleResults());
    // Same throughput, one more cycle in one scenario.
    std::vector<ScenarioResult> cycles = sampleResults();
    cycles[0].simCycles += 1;
    CompareReport rep = compareBench(base, roundTrip(cycles));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_EQ(rep.workMismatches, 1u);
    EXPECT_NE(rep.text.find("simulated work changed"), std::string::npos);

    // Faster, but with different committed instructions.
    std::vector<ScenarioResult> insts = sampleResults();
    insts[2].instructions += 7;
    insts[2].simCycles = sampleResults()[2].simCycles;
    insts[2].wallSeconds *= 0.5;
    rep = compareBench(base, roundTrip(insts));
    EXPECT_FALSE(rep.pass) << rep.text;
    EXPECT_EQ(rep.workMismatches, 1u);
}

TEST(BenchCompare, EqualSimulatedWorkPasses)
{
    const BenchFile base = roundTrip(sampleResults());
    std::vector<ScenarioResult> fast = sampleResults();
    for (ScenarioResult &r : fast)
        r.wallSeconds *= 0.8;
    const CompareReport rep = compareBench(base, roundTrip(fast));
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.workMismatches, 0u);
}

TEST(BenchCompare, DifferentModesKeepSimulatedWorkInformational)
{
    // A full-mode baseline against a quick candidate does different
    // work by design; so does a run with other run lengths.
    const BenchFile full = roundTrip(sampleResults());
    std::vector<ScenarioResult> shorter = sampleResults();
    for (ScenarioResult &r : shorter) {
        r.instructions /= 10;
        r.simCycles /= 10;
        r.wallSeconds /= 10;
    }
    const CompareReport rep =
        compareBench(full, roundTrip(shorter, PerfOptions::quickPreset()));
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.workMismatches, 0u);
    EXPECT_NE(rep.text.find("simulated work not compared"),
              std::string::npos);

    PerfOptions longer;
    longer.measureInstructions *= 2;
    EXPECT_TRUE(compareBench(full, roundTrip(shorter, longer)).pass);
}

TEST(BenchCompare, WorkVersionBumpKeepsSimulatedWorkInformational)
{
    // A change that moves simulated work on purpose bumps
    // kBenchWorkVersion; its comparison against an older file (or one
    // that predates the field) reports the counts but does not fail.
    const BenchFile base = roundTrip(sampleResults());
    EXPECT_EQ(base.workVersion, kBenchWorkVersion);
    std::vector<ScenarioResult> moved = sampleResults();
    moved[0].simCycles += 100;
    BenchFile older = base;
    older.workVersion = 0;
    const CompareReport rep = compareBench(older, roundTrip(moved));
    EXPECT_TRUE(rep.pass) << rep.text;
    EXPECT_EQ(rep.workMismatches, 0u);
    EXPECT_NE(rep.text.find("simulated work not compared"),
              std::string::npos);
}

TEST(BenchCompare, RejectsMalformedOrForeignJson)
{
    BenchFile f;
    std::string err;
    EXPECT_FALSE(parseBenchJson("", f, err));
    EXPECT_FALSE(parseBenchJson("{\"schema\": \"mtrap-bench-v1\"", f,
                                err));
    EXPECT_FALSE(parseBenchJson("[1, 2, 3]", f, err));
    EXPECT_FALSE(parseBenchJson(
        "{\"schema\": \"other-schema\", \"scenarios\": []}", f, err));
    EXPECT_FALSE(
        parseBenchJson("{\"schema\": \"mtrap-bench-v1\"}", f, err));
    // Minimal well-formed file.
    EXPECT_TRUE(parseBenchJson(
        "{\"schema\": \"mtrap-bench-v1\", \"scenarios\": []}", f, err))
        << err;
}

} // namespace
} // namespace mtrap::perf

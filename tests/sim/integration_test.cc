/**
 * @file
 * Integration tests: whole-system runs across schemes, the scheduler,
 * multi-core interleaving, and the runner/report utilities.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scheduler.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

RunOptions
quick()
{
    RunOptions opt;
    opt.warmupInstructions = 4'000;
    opt.measureInstructions = 15'000;
    return opt;
}

/** A quick() run of `w` under `s` on a Table-1 system. */
RunResult
quickRun(const Workload &w, Scheme s)
{
    return run({SystemConfig::forScheme(s), w, quick()}).result;
}

TEST(Integration, EverySchemeRunsEverywhere)
{
    const Workload w = buildSpecWorkload("bzip2");
    for (Scheme s : allSchemes()) {
        const RunResult r = quickRun(w, s);
        EXPECT_GT(r.cycles, 0u) << schemeName(s);
        EXPECT_GT(r.ipc, 0.05) << schemeName(s);
        EXPECT_LT(r.ipc, 8.1) << schemeName(s);
    }
}

TEST(Integration, NormalizedTimesInSaneRange)
{
    const Workload w = buildSpecWorkload("hmmer");
    const RunResult base = quickRun(w, Scheme::Baseline);
    for (Scheme s : allSchemes()) {
        const double n = normalizedTime(quickRun(w, s), base);
        EXPECT_GT(n, 0.5) << schemeName(s);
        EXPECT_LT(n, 4.0) << schemeName(s);
    }
}

TEST(Integration, MultiCoreParsecRunsAllThreads)
{
    const Workload w = buildParsecWorkload("swaptions");
    RunOutput out =
        run({SystemConfig::forScheme(Scheme::MuonTrap, 4), w, quick(), "mt"});
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(out.system->core(c).committedCount(), 10'000u)
            << "core " << c;
}

TEST(Integration, DeterministicAcrossRuns)
{
    const Workload w = buildSpecWorkload("gcc");
    const RunResult a = quickRun(w, Scheme::MuonTrap);
    const RunResult b = quickRun(w, Scheme::MuonTrap);
    EXPECT_EQ(a.cycles, b.cycles)
        << "identical configuration must be bit-reproducible";
}

TEST(Integration, MuonTrapCommitsWriteThroughs)
{
    RunOutput out = run({SystemConfig::forScheme(Scheme::MuonTrap),
                         buildSpecWorkload("soplex"), quick(), "mt"});
    EXPECT_GT(out.system->mem().commitWriteThroughs.value(), 100u);
}

TEST(Integration, RunnerResetsStatsAfterWarmup)
{
    RunOutput out = run({SystemConfig::forScheme(Scheme::Baseline),
                         buildSpecWorkload("hmmer"), quick(), "b"});
    // Committed counters were reset post-warmup; core counter keeps the
    // absolute value but the stats group was reset.
    EXPECT_GE(out.system->core(0).committedCount(),
              quick().measureInstructions);
}

// --- scheduler -------------------------------------------------------------

TEST(Scheduler, RoundRobinsAndFlushes)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    System sys(cfg);
    const Workload w1 = buildSpecWorkload("hmmer");
    const Workload w2 = buildSpecWorkload("gamess");
    if (w1.init)
        w1.init(sys.mem());
    if (w2.init)
        w2.init(sys.mem());

    Scheduler sched({&sys.core(0)}, SchedParams{/*quantum=*/20'000});
    sched.addTask(&w1.threadPrograms[0], 1);
    sched.addTask(&w2.threadPrograms[0], 2);
    const std::uint64_t done = sched.run(120'000);
    EXPECT_GE(done, 120'000u);
    EXPECT_GE(sched.switches(), 2u);
    // Each switch flushed the filters.
    EXPECT_GE(sys.mem().muontrap(0).flushCtxSwitch.value(),
              sched.switches());
}

TEST(Scheduler, SingleTaskNeverSwitches)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::Baseline, 1);
    System sys(cfg);
    const Workload w = buildSpecWorkload("hmmer");
    if (w.init)
        w.init(sys.mem());
    Scheduler sched({&sys.core(0)}, SchedParams{10'000});
    sched.addTask(&w.threadPrograms[0], 1);
    sched.run(50'000);
    EXPECT_EQ(sched.switches(), 0u);
}

// --- report utilities ----------------------------------------------------------

TEST(Report, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Report, TableAlignsAndCsv)
{
    ReportTable t("demo");
    t.header({"bench", "a", "b"});
    t.rowNumeric("x", {1.0, 2.0});
    t.rowNumeric("y", {4.0, 8.0});
    t.geomeanRow();
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("geomean"), std::string::npos);
    EXPECT_NE(os.str().find("2.000"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("bench,a,b"), std::string::npos);
    EXPECT_NE(csv.str().find("x,1.000,2.000"), std::string::npos);
}

TEST(Report, GeomeanRowComputesPerColumn)
{
    ReportTable t("demo");
    t.header({"bench", "v"});
    t.rowNumeric("x", {1.0});
    t.rowNumeric("y", {4.0});
    t.geomeanRow();
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("geomean,2.000"), std::string::npos);
}

} // namespace
} // namespace mtrap

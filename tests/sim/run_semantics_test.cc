/**
 * @file
 * Semantics of the run loops after the hot-path overhaul:
 *
 *  - System::run's heap-based multi-core stepping must produce exactly
 *    the state the historical per-step linear scan produced, for 1, 2
 *    and 4 cores (the byte-identical-figures property, asserted at the
 *    stats level).
 *  - Core::run(n) must return exactly n for non-halting programs (the
 *    commit budget no longer overshoots by up to commitWidth-1), and
 *    Scheduler::run inherits the exactness.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/runner.hh"
#include "sim/scheduler.hh"
#include "sim/system.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

/**
 * The historical System::run loop, verbatim: per step, linearly scan
 * for the non-halted, under-budget core with the smallest front-end
 * clock (first wins ties) and step it. The production implementation
 * must be indistinguishable from this.
 */
void
naiveRun(System &sys, std::uint64_t max_commits_per_core)
{
    std::vector<std::uint64_t> target(sys.numCores());
    for (unsigned c = 0; c < sys.numCores(); ++c)
        target[c] = sys.core(c).committedCount() + max_commits_per_core;

    while (true) {
        Core *best = nullptr;
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            Core &core = sys.core(c);
            if (core.halted() || core.committedCount() >= target[c])
                continue;
            if (!best || core.now() < best->now())
                best = &core;
        }
        if (!best)
            break;
        best->stepOne();
    }
}

/** Full stats dump: every counter in the tree must match. */
std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

void
expectIdenticalStepping(const Workload &w, unsigned cores,
                        std::uint64_t commits)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, cores);

    System optimized(cfg);
    optimized.loadWorkload(w);
    optimized.run(commits);

    System naive(cfg);
    naive.loadWorkload(w);
    naiveRun(naive, commits);

    for (unsigned c = 0; c < cores; ++c) {
        EXPECT_EQ(optimized.core(c).committedCount(),
                  naive.core(c).committedCount())
            << cores << " cores, core " << c;
        EXPECT_EQ(optimized.core(c).now(), naive.core(c).now())
            << cores << " cores, core " << c;
        EXPECT_EQ(optimized.core(c).lastCommitCycle(),
                  naive.core(c).lastCommitCycle())
            << cores << " cores, core " << c;
    }
    EXPECT_EQ(optimized.maxCommitCycle(), naive.maxCommitCycle());
    EXPECT_EQ(statsOf(optimized), statsOf(naive))
        << "stat trees diverged with " << cores << " cores";
}

TEST(SystemRun, HeapSteppingMatchesNaiveScanOneCore)
{
    expectIdenticalStepping(buildSpecWorkload("gcc"), 1, 20'000);
}

TEST(SystemRun, HeapSteppingMatchesNaiveScanTwoCores)
{
    expectIdenticalStepping(buildParsecWorkload("canneal", 2), 2,
                            12'000);
}

TEST(SystemRun, HeapSteppingMatchesNaiveScanFourCores)
{
    expectIdenticalStepping(buildParsecWorkload("streamcluster", 4), 4,
                            8'000);
}

// --- exact commit budgets ---------------------------------------------------

TEST(CoreRun, ReturnsExactlyTheRequestedCommits)
{
    // SPEC profiles are non-halting loops, so the budget is the only
    // stop condition.
    const Workload w = buildSpecWorkload("hmmer");
    SystemConfig cfg = SystemConfig::forScheme(Scheme::Baseline, 1);
    System sys(cfg);
    sys.loadWorkload(w);
    Core &core = sys.core(0);

    // Odd budgets that straddle commit-slot boundaries (commitWidth=8).
    for (std::uint64_t n : {1ull, 3ull, 7ull, 8ull, 9ull, 513ull,
                            10'001ull}) {
        const std::uint64_t before = core.committedCount();
        const std::uint64_t done = core.run(n);
        EXPECT_EQ(done, n) << "budget " << n;
        EXPECT_EQ(core.committedCount() - before, n) << "budget " << n;
    }
}

TEST(CoreRun, BudgetedRunsComposeToTheSameSimulation)
{
    // Chunked runs must land on the same architectural/timing state as
    // one big run: deferred retirements keep their timestamps.
    const Workload w = buildSpecWorkload("sjeng");
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);

    System big(cfg);
    big.loadWorkload(w);
    big.core(0).run(30'000);
    big.core(0).drain();

    System chunked(cfg);
    chunked.loadWorkload(w);
    std::uint64_t left = 30'000;
    while (left > 0) {
        const std::uint64_t chunk = std::min<std::uint64_t>(left, 777);
        const std::uint64_t done = chunked.core(0).run(chunk);
        ASSERT_EQ(done, chunk);
        left -= done;
    }
    chunked.core(0).drain();

    EXPECT_EQ(big.core(0).committedCount(),
              chunked.core(0).committedCount());
    EXPECT_EQ(big.core(0).lastCommitCycle(),
              chunked.core(0).lastCommitCycle());
    std::ostringstream a, b;
    big.dumpStats(a);
    chunked.dumpStats(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(SchedulerRun, TotalCommitsAreExactForNonHaltingTasks)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    System sys(cfg);
    const Workload w1 = buildSpecWorkload("hmmer");
    const Workload w2 = buildSpecWorkload("gamess");
    if (w1.init)
        w1.init(sys.mem());
    if (w2.init)
        w2.init(sys.mem());

    Scheduler sched({&sys.core(0)}, SchedParams{/*quantum=*/7'000});
    sched.addTask(&w1.threadPrograms[0], 1);
    sched.addTask(&w2.threadPrograms[0], 2);
    EXPECT_EQ(sched.run(40'003), 40'003u);
    EXPECT_GE(sched.switches(), 1u);
}

} // namespace
} // namespace mtrap

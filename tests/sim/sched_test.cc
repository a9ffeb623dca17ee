/**
 * @file
 * Gang-scheduler determinism and security properties:
 *  - chunked and monolithic multi-core scheduled runs produce identical
 *    stats (scheduling decisions sit on a fixed commit grid, so budget
 *    chunking cannot move them);
 *  - gang placement is deterministic/seed-stable and uses distinct
 *    cores per thread;
 *  - a context switch under MuonTrap actually flushes the filter
 *    structures (the security property time-sharing relies on);
 *  - load balancing migrates queued work onto a core that ran dry;
 *  - Scheduler::run keeps the exact-total-commit contract on many
 *    cores.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "sim/runner.hh"
#include "trace/chrome_trace.hh"
#include "sim/scheduler.hh"
#include "sim/system.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** A 4-core MuonTrap system with a mixed job set: four single-thread
 *  SPEC jobs plus one 2-thread PARSEC gang, distinct asids. */
std::unique_ptr<System>
buildMixedSystem(Cycle quantum)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 4);
    auto sys = std::make_unique<System>(cfg);
    SchedParams sp;
    sp.quantum = quantum;
    sys->attachScheduler(sp);
    Asid asid = 1;
    for (const char *name : {"hmmer", "gamess", "mcf", "gcc"})
        sys->addScheduledWorkload(
            buildWorkload(specProfile(name), asid++));
    sys->addScheduledWorkload(
        buildWorkload(parsecProfile("canneal", 2), asid++));
    return sys;
}

TEST(GangScheduler, ChunkedEqualsMonolithicMultiCore)
{
    auto mono = buildMixedSystem(/*quantum=*/9'000);
    auto chunked = buildMixedSystem(/*quantum=*/9'000);

    const std::uint64_t total = 120'000;
    EXPECT_EQ(mono->runScheduled(total), total);

    // Ragged chunks, crossing both the scheduler's decision grid and
    // quantum boundaries at arbitrary offsets.
    std::uint64_t done = 0;
    const std::uint64_t chunks[] = {1, 777, 512, 10'000, 3, 1'291};
    std::size_t i = 0;
    while (done < total) {
        const std::uint64_t want =
            std::min(chunks[i++ % 6], total - done);
        const std::uint64_t did = chunked->runScheduled(want);
        ASSERT_GT(did, 0u);
        done += did;
    }
    EXPECT_EQ(done, total);

    EXPECT_EQ(statsOf(*mono), statsOf(*chunked));
    EXPECT_EQ(mono->scheduler()->switches(),
              chunked->scheduler()->switches());
    EXPECT_EQ(mono->scheduler()->migrations(),
              chunked->scheduler()->migrations());
}

TEST(GangScheduler, GangPlacementIsDeterministicAndDisjoint)
{
    auto a = buildMixedSystem(10'000);
    auto b = buildMixedSystem(10'000);

    // Five jobs were admitted; placements must agree run to run.
    for (JobId job = 0; job < 5; ++job)
        EXPECT_EQ(a->scheduler()->placement(job),
                  b->scheduler()->placement(job))
            << "job " << job;

    // The gang (job 4, two threads) occupies two distinct cores.
    const std::vector<CoreId> gang = a->scheduler()->placement(4);
    ASSERT_EQ(gang.size(), 2u);
    EXPECT_NE(gang[0], gang[1]);
}

TEST(GangScheduler, ContextSwitchUnderMuonTrapFlushesFilter)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    System sys(cfg);
    const Workload w1 = buildWorkload(specProfile("hmmer"), 1);
    const Workload w2 = buildWorkload(specProfile("gamess"), 2);
    if (w1.init)
        w1.init(sys.mem());
    if (w2.init)
        w2.init(sys.mem());

    // Populate the filter cache with w1's speculative footprint.
    ArchContext ctx;
    ctx.program = &w1.threadPrograms[0];
    ctx.asid = w1.asid;
    ctx.pc = w1.threadPrograms[0].entry;
    sys.core(0).setContext(ctx);
    sys.core(0).run(5'000);
    EXPECT_GT(sys.mem().muontrap(0).dataFilter()->validLineCount(), 0u);

    // The switch must leave no attacker-observable filter state behind.
    ArchContext next;
    next.program = &w2.threadPrograms[0];
    next.asid = w2.asid;
    next.pc = w2.threadPrograms[0].entry;
    sys.core(0).contextSwitch(next);
    EXPECT_EQ(sys.mem().muontrap(0).dataFilter()->validLineCount(), 0u);
    EXPECT_GE(sys.mem().muontrap(0).flushCtxSwitch.value(), 1u);
}

TEST(GangScheduler, EveryScheduledSwitchFlushesItsCoreFilter)
{
    auto sys = buildMixedSystem(/*quantum=*/7'000);
    sys->runScheduled(100'000);
    ASSERT_GT(sys->scheduler()->switches(), 0u);

    std::uint64_t flushes = 0;
    for (CoreId c = 0; c < sys->numCores(); ++c)
        flushes += sys->mem().muontrap(c).flushCtxSwitch.value();
    EXPECT_EQ(flushes, sys->scheduler()->switches());
}

TEST(GangScheduler, MigrationRefillsACoreThatRanDry)
{
    // Least-loaded admission places the two short-lived jobs on core 0
    // and the two infinite SPEC jobs on core 1. Once both short jobs
    // halt, core 0 runs dry and load balancing must migrate one of
    // core 1's queued jobs over (and the totals must stay exact).
    ProgramBuilder b("short");
    b.movi(1, 0);
    for (int i = 0; i < 64; ++i)
        b.addi(1, 1, 1);
    b.halt();
    const Program short_prog = b.take();

    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);
    System sys(cfg);
    SchedParams sp;
    sp.quantum = 5'000;
    sys.attachScheduler(sp);

    const Workload w1 = buildWorkload(specProfile("hmmer"), 3);
    const Workload w2 = buildWorkload(specProfile("gamess"), 4);

    Scheduler &sched = *sys.scheduler();
    sched.addTask(&short_prog, 1);  // -> core 0
    sys.addScheduledWorkload(w1);   // -> core 1
    sched.addTask(&short_prog, 2);  // -> core 0
    sys.addScheduledWorkload(w2);   // -> core 1

    EXPECT_EQ(sys.runScheduled(60'000), 60'000u);
    EXPECT_GE(sched.migrations(), 1u);
}

TEST(GangScheduler, RunTotalsAreExactAcrossCores)
{
    auto sys = buildMixedSystem(11'000);
    EXPECT_EQ(sys->runScheduled(40'003), 40'003u);
    EXPECT_EQ(sys->runScheduled(17), 17u);
    EXPECT_EQ(sys->runScheduled(99'980), 99'980u);
}

TEST(GangScheduler, DecisionTraceRecordsOccupancyRows)
{
    auto build = [](bool traced) {
        SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);
        auto sys = std::make_unique<System>(cfg);
        if (traced)
            sys->attachTracer();
        SchedParams sp;
        sp.quantum = 5'000;
        sys->attachScheduler(sp);
        Asid asid = 1;
        for (const char *name : {"hmmer", "gamess", "mcf"})
            sys->addScheduledWorkload(
                buildWorkload(specProfile(name), asid++));
        EXPECT_EQ(sys->runScheduled(30'000), 30'000u);
        return sys;
    };

    // Decision rows live on the system tracer's scheduler ring. Each
    // core's clock is monotonic, so its decision slots (when / quantum)
    // never go backwards.
    auto sys = build(true);
    const Tracer &tracer = *sys->tracer();
    std::uint64_t rows = 0, runs = 0;
    std::vector<std::uint64_t> last_slot(2, 0);
    for (const TraceEvent &e : tracer.schedBuffer().ordered()) {
        if (e.kind == TraceEventKind::SchedMigrate)
            continue; // migrations are not decision rows
        ++rows;
        ASSERT_LT(e.core, 2u);
        if (e.kind == TraceEventKind::SchedRun) {
            ++runs;
            EXPECT_LT(e.arg0, 3u);
            EXPECT_EQ(e.arg1, 0u); // single-threaded jobs
        } else {
            EXPECT_TRUE(e.kind == TraceEventKind::SchedIdle
                        || e.kind == TraceEventKind::SchedPark);
        }
        const std::uint64_t slot = e.when / 5'000;
        EXPECT_GE(slot, last_slot[e.core]);
        last_slot[e.core] = slot;
    }
    EXPECT_GT(runs, 0u);

    // CSV export: header plus one sched_run/idle/park line per
    // decision, next to the other traced events.
    std::ostringstream csv;
    writeTraceCsv(tracer, csv);
    const std::string s = csv.str();
    EXPECT_EQ(s.rfind("cycle,core,kind,arg0,arg1\n", 0), 0u);
    std::istringstream lines(s);
    std::uint64_t decision_lines = 0;
    for (std::string line; std::getline(lines, line);)
        if (line.find(",sched_run,") != std::string::npos
            || line.find(",sched_idle,") != std::string::npos
            || line.find(",sched_park,") != std::string::npos)
            ++decision_lines;
    EXPECT_EQ(decision_lines, rows);

    // The trace is deterministic: an identical run traces identically.
    auto sys2 = build(true);
    std::ostringstream csv2;
    writeTraceCsv(*sys2->tracer(), csv2);
    EXPECT_EQ(s, csv2.str());

    // Tracing must not perturb the simulation itself: the stat tree
    // differs only by the tracer's own recorded/dropped group.
    std::istringstream in(statsOf(*sys));
    std::string line, traced_stats;
    while (std::getline(in, line))
        if (line.rfind("system.trace.", 0) != 0)
            traced_stats += line + "\n";
    EXPECT_EQ(traced_stats, statsOf(*build(false)));
}

} // namespace
} // namespace mtrap

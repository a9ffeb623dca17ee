/**
 * @file
 * Open-system arrival/QoS tests (sim/arrival.hh): schedule determinism,
 * service-limit exactness, the chunked == monolithic contract with
 * mid-quantum admissions, mid-arrival-stream snapshot round-trips,
 * weighted quanta, IO-wait sleeps, deadlines and the percentile math
 * behind ServerReport.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/arrival.hh"
#include "sim/runner.hh"
#include "sim/scheduler.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

/** Small, fast canonical arrival shape shared by the run tests. */
ArrivalParams
tinyArrivals()
{
    ArrivalParams ap;
    ap.seed = 7;
    ap.jobs = 6;
    ap.meanInterarrival = 3'000;
    ap.serviceMinCommits = 1'500;
    ap.serviceMaxCommits = 4'000;
    return ap;
}

SchedParams
tinySched()
{
    SchedParams sp;
    sp.quantum = 2'000;
    return sp;
}

/** A fresh open-system machine with the injector attached. */
struct ServerRig
{
    System sys;
    ArrivalInjector inj;

    ServerRig(const ArrivalParams &ap, const SchedParams &sp,
              unsigned cores = 2)
        : sys(SystemConfig::forScheme(Scheme::Baseline, cores)),
          inj((sys.attachScheduler(sp), sys), ap)
    {
        sys.scheduler()->setArrivalSource(&inj);
    }

    /** Drive to completion in `chunk`-commit steps; returns total. */
    std::uint64_t
    runAll(std::uint64_t chunk)
    {
        std::uint64_t total = 0;
        for (;;) {
            const std::uint64_t did = sys.runScheduled(chunk);
            total += did;
            if (did < chunk)
                return total;
        }
    }
};

void
expectSameRecords(const std::vector<JobRecord> &a,
                  const std::vector<JobRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].job, b[i].job) << "job " << i;
        EXPECT_EQ(a[i].arrival, b[i].arrival) << "job " << i;
        EXPECT_EQ(a[i].firstRun, b[i].firstRun) << "job " << i;
        EXPECT_EQ(a[i].finish, b[i].finish) << "job " << i;
        EXPECT_EQ(a[i].committed, b[i].committed) << "job " << i;
        EXPECT_EQ(a[i].done, b[i].done) << "job " << i;
    }
}

// ----------------------------------------------------------- schedule

TEST(ArrivalSchedule, SameSeedIsByteIdentical)
{
    ArrivalParams ap = tinyArrivals();
    ap.jobs = 64;
    ap.deadlineFactor = 5;
    ap.maxWeight = 3;
    const auto a = generateArrivalSchedule(ap);
    const auto b = generateArrivalSchedule(ap);
    ASSERT_EQ(a.size(), 64u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].profile, b[i].profile);
        EXPECT_EQ(a[i].serviceCommits, b[i].serviceCommits);
        EXPECT_EQ(a[i].deadline, b[i].deadline);
        EXPECT_EQ(a[i].weight, b[i].weight);
        EXPECT_EQ(a[i].workloadSeed, b[i].workloadSeed);
    }
}

TEST(ArrivalSchedule, SeedChangesSchedule)
{
    ArrivalParams ap = tinyArrivals();
    ap.jobs = 32;
    const auto a = generateArrivalSchedule(ap);
    ap.seed = ap.seed + 1;
    const auto b = generateArrivalSchedule(ap);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].at != b[i].at
                   || a[i].serviceCommits != b[i].serviceCommits;
    EXPECT_TRUE(differs);
}

TEST(ArrivalSchedule, DrawsRespectParameterRanges)
{
    ArrivalParams ap = tinyArrivals();
    ap.jobs = 128;
    ap.deadlineFactor = 4;
    ap.maxWeight = 3;
    const auto events = generateArrivalSchedule(ap);
    Cycle prev = 0;
    for (const ArrivalEvent &e : events) {
        EXPECT_GE(e.at, 1u);
        EXPECT_GE(e.at, prev); // non-decreasing
        prev = e.at;
        EXPECT_GE(e.serviceCommits, ap.serviceMinCommits);
        EXPECT_LE(e.serviceCommits, ap.serviceMaxCommits);
        EXPECT_GE(e.weight, 1u);
        EXPECT_LE(e.weight, ap.maxWeight);
        EXPECT_EQ(e.deadline,
                  e.at + e.serviceCommits * ap.deadlineFactor);
    }
}

TEST(ArrivalSchedule, BurstPatternClustersArrivals)
{
    ArrivalParams ap = tinyArrivals();
    ap.pattern = ArrivalPattern::Burst;
    ap.jobs = 16;
    ap.burstSize = 4;
    ap.burstSpacing = 100;
    const auto events = generateArrivalSchedule(ap);
    // Within a burst, consecutive gaps are exactly burstSpacing.
    for (std::size_t i = 0; i < events.size(); ++i)
        if (i % ap.burstSize != 0) {
            EXPECT_EQ(events[i].at - events[i - 1].at, ap.burstSpacing);
        }
}

// --------------------------------------------------------- percentiles

TEST(Percentile, NearestRankIsIntegerExact)
{
    std::vector<Cycle> v;
    for (Cycle i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentileCycles(v, 50), 50u);
    EXPECT_EQ(percentileCycles(v, 95), 95u);
    EXPECT_EQ(percentileCycles(v, 99), 99u);
    EXPECT_EQ(percentileCycles(v, 100), 100u);
    EXPECT_EQ(percentileCycles(v, 1), 1u);

    // Small n: ceil(p*n/100)-1 indexing, no interpolation.
    EXPECT_EQ(percentileCycles({40, 10, 30, 20}, 50), 20u);
    EXPECT_EQ(percentileCycles({40, 10, 30, 20}, 99), 40u);
    EXPECT_EQ(percentileCycles({5}, 50), 5u);
    EXPECT_EQ(percentileCycles({}, 95), 0u);
}

// ----------------------------------------------------- open-system run

TEST(ServerRun, ServiceLimitsAreExactAndAllJobsComplete)
{
    ServerRig rig(tinyArrivals(), tinySched());
    rig.runAll(5'000);

    const auto records = rig.sys.scheduler()->jobRecords();
    ASSERT_EQ(records.size(), rig.inj.schedule().size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE(records[i].done) << "job " << i;
        // Forced completion must cut the job at exactly its drawn
        // service demand, never a chunk boundary past it.
        EXPECT_EQ(records[i].committed,
                  rig.inj.schedule()[i].serviceCommits)
            << "job " << i;
        EXPECT_GE(records[i].firstRun, records[i].arrival);
        EXPECT_GT(records[i].finish, records[i].firstRun);
    }

    const ServerReport rep = ServerReport::build(rig.sys, rig.inj);
    EXPECT_EQ(rep.admitted, rig.inj.schedule().size());
    EXPECT_EQ(rep.completed, rep.admitted);
    EXPECT_GT(rep.sojournP50, 0u);
    EXPECT_GE(rep.sojournP95, rep.sojournP50);
    EXPECT_GE(rep.sojournP99, rep.sojournP95);
    EXPECT_GE(rep.sojournMax, rep.sojournP99);
    EXPECT_GT(rep.occupancy, 0.0);
    EXPECT_LE(rep.occupancy, 1.0);
}

TEST(ServerRun, ChunkedEqualsMonolithicWithMidQuantumArrivals)
{
    // Chunk sizes chosen to land inside quanta and inside the
    // scheduler's decision grid, so admissions happen mid-chunk in one
    // run and mid-quantum in both.
    ServerRig mono(tinyArrivals(), tinySched());
    mono.runAll(1'000'000'000);

    ServerRig fine(tinyArrivals(), tinySched());
    fine.runAll(700);

    EXPECT_EQ(mono.sys.maxCommitCycle(), fine.sys.maxCommitCycle());
    expectSameRecords(mono.sys.scheduler()->jobRecords(),
                      fine.sys.scheduler()->jobRecords());

    const ServerReport a = ServerReport::build(mono.sys, mono.inj);
    const ServerReport b = ServerReport::build(fine.sys, fine.inj);
    EXPECT_EQ(a.sojournP95, b.sojournP95);
    EXPECT_EQ(a.waitP95, b.waitP95);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.occupancy, b.occupancy);
}

TEST(ServerRun, SnapshotRoundTripMidArrivalStream)
{
    const ArrivalParams ap = tinyArrivals();
    const SchedParams sp = tinySched();
    constexpr std::uint64_t kCtx = 0x5eed;

    // Run A partway: far enough that some jobs are admitted (and some
    // running), not so far that the arrival stream is drained.
    ServerRig a(ap, sp);
    a.sys.runScheduled(4'000);
    ASSERT_GT(a.inj.admitted(), 0u);
    ASSERT_LT(a.inj.admitted(), a.inj.schedule().size());
    const std::vector<std::uint8_t> image =
        saveServerSnapshot(a.sys, a.inj, kCtx);

    // Restore into a fresh machine; both continue to completion.
    ServerRig b(ap, sp);
    restoreServerSnapshot(b.sys, b.inj, image, kCtx);
    EXPECT_EQ(b.inj.admitted(), a.inj.admitted());

    a.runAll(3'000);
    b.runAll(3'000);

    EXPECT_EQ(a.sys.maxCommitCycle(), b.sys.maxCommitCycle());
    expectSameRecords(a.sys.scheduler()->jobRecords(),
                      b.sys.scheduler()->jobRecords());
    const ServerReport ra = ServerReport::build(a.sys, a.inj);
    const ServerReport rb = ServerReport::build(b.sys, b.inj);
    EXPECT_EQ(ra.sojournP99, rb.sojournP99);
    EXPECT_EQ(ra.makespan, rb.makespan);
}

TEST(ServerRun, ServerSnapshotRejectsWrongContext)
{
    ServerRig a(tinyArrivals(), tinySched());
    a.sys.runScheduled(4'000);
    const auto image = saveServerSnapshot(a.sys, a.inj, 1);

    ServerRig b(tinyArrivals(), tinySched());
    EXPECT_THROW(restoreServerSnapshot(b.sys, b.inj, image, 2),
                 SnapshotError);
}

TEST(ServerRun, WeightedJobGetsMoreThroughput)
{
    // Two identical-demand jobs share one core; the weight-3 job gets
    // three consecutive quanta per round and must finish first.
    ArrivalParams ap = tinyArrivals();
    ap.jobs = 2;
    ap.meanInterarrival = 1; // both arrive almost immediately
    ap.serviceMinCommits = 6'000;
    ap.serviceMaxCommits = 6'000;

    const SchedParams sp = tinySched();

    // Weights are drawn from the schedule seed, so re-draw seeds until
    // job 0 clearly outweighs job 1 — with maxWeight 3 this converges
    // after a handful of tries.
    ArrivalParams heavy = ap;
    heavy.maxWeight = 3;
    std::uint64_t seed = heavy.seed;
    for (;; ++seed) {
        heavy.seed = seed;
        const auto ev = generateArrivalSchedule(heavy);
        if (ev[0].weight > 2 * ev[1].weight
            && ev[0].serviceCommits == ev[1].serviceCommits)
            break;
    }
    System wsys(SystemConfig::forScheme(Scheme::Baseline, 1));
    wsys.attachScheduler(sp);
    ArrivalInjector winj(wsys, heavy);
    wsys.scheduler()->setArrivalSource(&winj);
    for (;;) {
        if (wsys.runScheduled(5'000) < 5'000)
            break;
    }
    const auto records = wsys.scheduler()->jobRecords();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].done);
    EXPECT_TRUE(records[1].done);
    // Equal demand, triple the quanta share: the heavy job finishes
    // strictly earlier.
    EXPECT_LT(records[0].finish, records[1].finish);
}

TEST(ServerRun, SleepingJobsLengthenTheirSojourn)
{
    ArrivalParams awake = tinyArrivals();
    ServerRig a(awake, tinySched());
    a.runAll(5'000);

    ArrivalParams dozy = awake;
    dozy.sleepPeriodCommits = 500;
    dozy.sleepDurationCycles = 2'000;
    ServerRig d(dozy, tinySched());
    d.runAll(5'000);

    const ServerReport ra = ServerReport::build(a.sys, a.inj);
    const ServerReport rd = ServerReport::build(d.sys, d.inj);
    EXPECT_EQ(ra.completed, rd.completed);
    // IO-wait adds pure latency: every job sleeps repeatedly, so the
    // slowest job's sojourn strictly grows.
    EXPECT_GT(rd.sojournMax, ra.sojournMax);
}

TEST(ServerRun, DeadlineAccountingFollowsTheFactor)
{
    ArrivalParams ap = tinyArrivals();
    ap.deadlineFactor = 1'000'000; // unmissable
    ServerRig lax(ap, tinySched());
    lax.runAll(5'000);
    const ServerReport rl = ServerReport::build(lax.sys, lax.inj);
    EXPECT_EQ(rl.deadlineTotal, ap.jobs);
    EXPECT_EQ(rl.deadlineMisses, 0u);

    ap.deadlineFactor = 1; // at IPC < 1 with queueing, must miss some
    ServerRig tight(ap, tinySched());
    tight.runAll(5'000);
    const ServerReport rt = ServerReport::build(tight.sys, tight.inj);
    EXPECT_EQ(rt.deadlineTotal, ap.jobs);
    EXPECT_GT(rt.deadlineMisses, 0u);
}

TEST(ServerRun, AffinityMigrationIsDeterministicAndBounded)
{
    ArrivalParams ap = tinyArrivals();
    ap.jobs = 8;
    SchedParams sp = tinySched();
    sp.affinity = true;

    ServerRig a(ap, sp);
    a.runAll(5'000);
    ServerRig b(ap, sp);
    b.runAll(5'000);

    EXPECT_EQ(a.sys.maxCommitCycle(), b.sys.maxCommitCycle());
    EXPECT_EQ(a.sys.scheduler()->migrations(),
              b.sys.scheduler()->migrations());
    expectSameRecords(a.sys.scheduler()->jobRecords(),
                      b.sys.scheduler()->jobRecords());
}

TEST(ServerRun, RunServerConfiguredReportsAndSamplesSeries)
{
    ArrivalParams ap = tinyArrivals();
    RunOptions opt;
    opt.statsInterval = 2'000;
    const RunOutput out =
        run({SystemConfig::forScheme(Scheme::Baseline, 2),
             ServerSource{ap, tinySched()}, opt, "Baseline"});
    EXPECT_EQ(out.report.completed, ap.jobs);
    ASSERT_NE(out.statSeries, nullptr);
    EXPECT_GT(out.statSeries->rows().size(), 0u);

    // Sampling is pure observation: an unsampled run lands on the same
    // makespan and percentiles.
    const RunOutput plain =
        run({SystemConfig::forScheme(Scheme::Baseline, 2),
             ServerSource{ap, tinySched()}, {}, "Baseline"});
    EXPECT_EQ(plain.report.makespan, out.report.makespan);
    EXPECT_EQ(plain.report.sojournP95, out.report.sojournP95);
}

} // namespace
} // namespace mtrap

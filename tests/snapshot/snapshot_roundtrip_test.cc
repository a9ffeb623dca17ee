/**
 * @file
 * Snapshot round-trip identity: a machine saved mid-flight, restored
 * into another System and run on must be *bit-identical* to the
 * monolithic run — stats dumps, RunResults and trace exports alike.
 * This is the oracle that makes warm-fork sweeps (mtrap_batch
 * --warm-snapshot) and resumable shards sound: any serialization gap
 * in any component shows up here as a stats diff.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <array>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json_stats.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "trace/chrome_trace.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

constexpr std::uint64_t kCtx = 7;

std::string
statsJson(System &sys)
{
    std::ostringstream os;
    dumpStatsJson(sys.root(), os);
    return os.str();
}

std::string
archDigest(System &sys)
{
    std::ostringstream os;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        Core &core = sys.core(c);
        os << c << ':' << core.committedCount() << ':'
           << core.lastCommitCycle() << ':' << core.halted();
        for (unsigned r = 0; r < kNumRegs; ++r)
            os << ',' << core.reg(r);
        os << '\n';
    }
    return os.str();
}

const std::vector<Scheme> &
allSchemes()
{
    static const std::vector<Scheme> s = {
        Scheme::Baseline,          Scheme::MuonTrap,
        Scheme::InvisiSpecSpectre, Scheme::InvisiSpecFuture,
        Scheme::SttSpectre,        Scheme::SttFuture,
    };
    return s;
}

Workload
workloadFor(unsigned cores)
{
    return cores == 1 ? buildSpecWorkload("gcc")
                      : buildParsecWorkload("canneal", cores);
}

TEST(SnapshotRoundTrip, BitIdenticalAcrossSchemesAndCoreCounts)
{
    for (const Scheme scheme : allSchemes()) {
        for (const unsigned cores : {1u, 2u, 4u}) {
            const Workload w = workloadFor(cores);
            const SystemConfig cfg = SystemConfig::forScheme(scheme,
                                                             cores);

            System mono(cfg);
            mono.loadWorkload(w);
            mono.run(2'000); // warm phase; nothing drained at the save
            const std::vector<std::uint8_t> image =
                mono.saveSnapshot(kCtx);
            mono.resetStats();
            mono.run(5'000);

            System rest(cfg);
            rest.loadWorkload(w);
            rest.restoreSnapshot(image, kCtx);
            rest.resetStats();
            rest.run(5'000);

            const std::string what = std::string(schemeName(scheme))
                                     + " cores="
                                     + std::to_string(cores);
            ASSERT_EQ(statsJson(rest), statsJson(mono)) << what;
            ASSERT_EQ(archDigest(rest), archDigest(mono)) << what;
        }
    }
}

TEST(SnapshotRoundTrip, ScheduledMixSavedMidQuantum)
{
    const SystemConfig cfg =
        SystemConfig::forScheme(Scheme::MuonTrap, 2);
    SchedParams sp;
    sp.quantum = 10'000;
    const Workload w1 = buildWorkload(specProfile("mcf"), 1);
    const Workload w2 = buildWorkload(specProfile("gcc"), 2);
    const auto admit = [&](System &sys) {
        sys.attachScheduler(sp);
        sys.addScheduledWorkload(w1);
        sys.addScheduledWorkload(w2);
    };

    System mono(cfg);
    admit(mono);
    // An off-quantum commit total leaves resident tasks mid-quantum
    // (partial budgets, live filter contents) at the save point.
    mono.runScheduled(13'777);
    const std::vector<std::uint8_t> image = mono.saveSnapshot(kCtx);
    mono.resetStats();
    mono.runScheduled(30'000);

    System rest(cfg);
    admit(rest);
    rest.restoreSnapshot(image, kCtx);
    rest.resetStats();
    rest.runScheduled(30'000);

    ASSERT_EQ(statsJson(rest), statsJson(mono));
    ASSERT_EQ(archDigest(rest), archDigest(mono));
}

TEST(SnapshotRoundTrip, TracedIntervalSampledRunThroughRunner)
{
    const Workload w = buildSpecWorkload("mcf");
    const SystemConfig cfg =
        SystemConfig::forScheme(Scheme::MuonTrap, 1);
    const std::string snap = testing::TempDir() + "roundtrip-mid.snap";

    RunOptions save_opt;
    save_opt.warmupInstructions = 2'000;
    save_opt.measureInstructions = 6'000;
    save_opt.trace = true;
    save_opt.statsInterval = 1'500;
    save_opt.snapshotOut = snap;
    RunOutput mono = run({cfg, w, save_opt, "mt"});

    RunOptions load_opt = save_opt;
    load_opt.snapshotOut.clear();
    load_opt.snapshotIn = snap;
    RunOutput rest = run({cfg, w, load_opt, "mt"});

    EXPECT_EQ(rest.result.cycles, mono.result.cycles);
    EXPECT_EQ(rest.result.ipc, mono.result.ipc);
    ASSERT_EQ(statsJson(*rest.system), statsJson(*mono.system));

    // Trace export identity: warmup-phase ring contents rode along in
    // the snapshot, so the full Chrome trace (events + interval
    // counter series) is byte-identical.
    std::ostringstream mono_trace, rest_trace;
    writeChromeTrace(*mono.system->tracer(), mono.statSeries.get(),
                     mono_trace);
    writeChromeTrace(*rest.system->tracer(), rest.statSeries.get(),
                     rest_trace);
    ASSERT_EQ(rest_trace.str(), mono_trace.str());
}

TEST(SnapshotRoundTrip, RestoreIntoReusedSystemEqualsFresh)
{
    const Workload w = buildSpecWorkload("gcc");
    const SystemConfig cfg =
        SystemConfig::forScheme(Scheme::SttSpectre, 1);

    System origin(cfg);
    origin.loadWorkload(w);
    origin.run(2'500);
    const std::vector<std::uint8_t> image = origin.saveSnapshot(kCtx);

    // A machine that already ran somewhere else entirely: restore must
    // overwrite every trace of that history.
    System reused(cfg);
    reused.loadWorkload(w);
    reused.run(4'321);
    reused.restoreSnapshot(image, kCtx);
    reused.resetStats();
    reused.run(4'000);

    System fresh(cfg);
    fresh.loadWorkload(w);
    fresh.restoreSnapshot(image, kCtx);
    fresh.resetStats();
    fresh.run(4'000);

    ASSERT_EQ(statsJson(reused), statsJson(fresh));
    ASSERT_EQ(archDigest(reused), archDigest(fresh));
}

TEST(SnapshotRoundTrip, WarmForkCacheHitSkipsWarmupBitIdentically)
{
    const std::string dir = testing::TempDir() + "warm-fork-cache";
    ::mkdir(dir.c_str(), 0755);
    // The cache key (config + context fingerprint) does not cover the
    // simulator's *code*, so a snapshot left by an older build would be
    // restored here and diverge from the fresh monolithic run. Start
    // from an empty cache: this test is about hit-vs-miss identity
    // within one build, not cross-build reuse.
    [[maybe_unused]] const int rc =
        std::system(("rm -f '" + dir + "'/*.snap").c_str());

    const Workload w = buildSpecWorkload("mcf");
    const SystemConfig cfg =
        SystemConfig::forScheme(Scheme::InvisiSpecSpectre, 1);
    RunOptions opt;
    opt.warmupInstructions = 2'000;
    opt.measureInstructions = 5'000;
    opt.warmSnapshotDir = dir;

    // Miss: warms up and populates the cache.
    RunOutput cold = run({cfg, w, opt, "is"});
    // Hit: restores instead of warming.
    RunOutput hit = run({cfg, w, opt, "is"});

    EXPECT_EQ(hit.result.cycles, cold.result.cycles);
    EXPECT_EQ(hit.result.ipc, cold.result.ipc);
    ASSERT_EQ(statsJson(*hit.system), statsJson(*cold.system));

    // And a run with no warm cache at all agrees too.
    RunOptions plain = opt;
    plain.warmSnapshotDir.clear();
    RunOutput none = run({cfg, w, plain, "is"});
    ASSERT_EQ(statsJson(*none.system), statsJson(*cold.system));
}

TEST(SnapshotRoundTrip, SaveIsReadOnly)
{
    const Workload w = buildSpecWorkload("gcc");
    const SystemConfig cfg =
        SystemConfig::forScheme(Scheme::MuonTrap, 1);

    System sys(cfg);
    sys.loadWorkload(w);
    sys.run(2'000);
    const std::vector<std::uint8_t> a = sys.saveSnapshot(kCtx);
    const std::vector<std::uint8_t> b = sys.saveSnapshot(kCtx);
    // Saving twice without stepping yields the same bytes, and the
    // machine keeps running exactly as if never observed.
    ASSERT_EQ(a, b);

    System witness(cfg);
    witness.loadWorkload(w);
    witness.run(2'000);
    sys.run(3'000);
    witness.run(3'000);
    ASSERT_EQ(statsJson(sys), statsJson(witness));
}

} // namespace
} // namespace mtrap

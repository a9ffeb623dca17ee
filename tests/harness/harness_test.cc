/**
 * @file
 * Tests for the parallel experiment harness: thread-count invariance
 * (the determinism contract), shard coverage, sweep expansion, warm
 * snapshots keyed on seeded workloads, cancellation, and ResultStore
 * serialisation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "harness/manifest.hh"
#include "harness/pool.hh"
#include "harness/result_store.hh"
#include "harness/suites.hh"
#include "harness/sweep.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap::harness
{
namespace
{

RunOptions
quick()
{
    RunOptions opt;
    opt.warmupInstructions = 2'000;
    opt.measureInstructions = 6'000;
    return opt;
}

std::vector<JobSpec>
smallSweep(std::uint64_t seed = 0)
{
    return SweepBuilder("test")
        .options(quick())
        .seed(seed)
        .workloads({"bzip2", "povray"})
        .withBaseline()
        .schemes({Scheme::MuonTrap, Scheme::SttSpectre})
        .build();
}

TEST(SweepBuilder, ScheduledMixJobsAreThreadCountInvariant)
{
    SchedParams sp;
    sp.quantum = 3'000;
    const std::vector<JobSpec> jobs =
        SweepBuilder("schedtest")
            .options(quick())
            .schedule(sp, /*cores=*/2)
            .mixRow("mix", {"bzip2", "povray", "hmmer"})
            .withBaseline()
            .schemes({Scheme::MuonTrap})
            .build();
    ASSERT_EQ(jobs.size(), 2u);
    const RunSource src = jobs[0].source();
    ASSERT_TRUE(std::holds_alternative<MixSource>(src));
    EXPECT_EQ(std::get<MixSource>(src).jobs.size(), 3u);

    ExperimentPool serial(1), parallel(4);
    const std::vector<JobResult> a = serial.run(jobs);
    const std::vector<JobResult> b = parallel.run(jobs);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ok) << a[i].error;
        EXPECT_TRUE(b[i].ok) << b[i].error;
        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles);
        EXPECT_EQ(a[i].run.workload, "bzip2+povray+hmmer");
    }
}

TEST(SweepBuilder, MixRowWithoutScheduleIsRejected)
{
    SweepBuilder b("bad");
    b.options(quick())
        .mixRow("mix", {"bzip2", "povray"})
        .schemes({Scheme::MuonTrap});
    EXPECT_DEATH((void)b.build(), "needs schedule");
}

TEST(SweepBuilder, ExpandsRowMajorWithBaselineFirst)
{
    const std::vector<JobSpec> jobs = smallSweep();
    ASSERT_EQ(jobs.size(), 6u); // 2 rows x (baseline + 2 schemes)

    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);

    EXPECT_EQ(jobs[0].row, "bzip2");
    EXPECT_EQ(jobs[0].kind, "baseline");
    EXPECT_EQ(jobs[1].col, "MuonTrap");
    EXPECT_EQ(jobs[2].col, "STT-Spectre");
    EXPECT_EQ(jobs[3].row, "povray");
    EXPECT_EQ(jobs[3].kind, "baseline");
}

/** A fresh, empty directory under the gtest temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::size_t
fileCount(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

TEST(SweepBuilder, SeededJobsWithSameConfigShareWarmSnapshot)
{
    // Two columns of one seeded row: same configuration, same workload,
    // so the second job must restore the first one's warm machine.
    RunOptions opt = quick();
    opt.warmSnapshotDir = freshDir("mtrap_sweep_warm");
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    const std::vector<JobSpec> jobs = SweepBuilder("warm")
                                          .options(opt)
                                          .seed(1234)
                                          .workloads({"bzip2"})
                                          .config("a", "MuonTrap", cfg)
                                          .config("b", "MuonTrap", cfg)
                                          .build();
    ASSERT_EQ(jobs.size(), 2u);
    const std::vector<JobResult> rs = ExperimentPool(1).run(jobs);
    ASSERT_TRUE(rs[0].ok) << rs[0].error;
    ASSERT_TRUE(rs[1].ok) << rs[1].error;
    EXPECT_EQ(rs[0].run.cycles, rs[1].run.cycles);
    EXPECT_EQ(fileCount(opt.warmSnapshotDir), 1u);
    std::filesystem::remove_all(opt.warmSnapshotDir);
}

TEST(ExperimentPool, EightWorkersMatchOneWorkerExactly)
{
    const std::vector<JobSpec> jobs = smallSweep();

    ExperimentPool serial(1), parallel(8);
    const std::vector<JobResult> a = serial.run(jobs);
    const std::vector<JobResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ok);
        EXPECT_TRUE(b[i].ok);
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].row, b[i].row);
        EXPECT_EQ(a[i].col, b[i].col);
        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles) << a[i].row << "/"
                                                    << a[i].col;
        EXPECT_EQ(a[i].run.ipc, b[i].run.ipc);
    }
}

TEST(ExperimentPool, ShardsPartitionTheJobListExactly)
{
    const std::vector<JobSpec> jobs = smallSweep();
    const unsigned m = 3;

    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (unsigned shard = 0; shard < m; ++shard) {
        const std::vector<JobSpec> mine = shardJobs(jobs, shard, m);
        total += mine.size();
        for (const JobSpec &j : mine)
            EXPECT_TRUE(seen.insert(j.index).second)
                << "job " << j.index << " in two shards";
    }
    EXPECT_EQ(total, jobs.size()); // every job exactly once
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(seen.count(i)) << "job " << i << " in no shard";

    // Global indices survive sharding (so artifacts merge).
    const std::vector<JobSpec> shard1 = shardJobs(jobs, 1, m);
    ASSERT_FALSE(shard1.empty());
    EXPECT_EQ(shard1[0].index, 1u);
}

TEST(ExperimentPool, FirstFailureCancelsUnstartedJobs)
{
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < 5; ++i) {
        JobSpec j;
        j.index = i;
        j.suite = "cancel";
        j.row = "job" + std::to_string(i);
        j.custom = [i](const JobSpec &) -> JobResult {
            if (i == 1)
                throw std::runtime_error("boom");
            return {};
        };
        jobs.push_back(std::move(j));
    }

    // One worker => deterministic: job0 runs, job1 fails, 2..4 never
    // start and come back cancelled.
    ExperimentPool pool(1);
    const std::vector<JobResult> rs = pool.run(jobs);
    ASSERT_EQ(rs.size(), 5u);
    EXPECT_TRUE(rs[0].ok);
    EXPECT_FALSE(rs[1].ok);
    EXPECT_NE(rs[1].error.find("boom"), std::string::npos);
    for (std::size_t i = 2; i < 5; ++i) {
        EXPECT_FALSE(rs[i].ok);
        EXPECT_EQ(rs[i].error, "cancelled");
    }
}

TEST(ExperimentPool, ProgressFiresOncePerJob)
{
    const std::vector<JobSpec> jobs = smallSweep();
    ExperimentPool pool(4);
    std::set<std::size_t> done;
    pool.run(jobs, [&](const JobResult &r) {
        EXPECT_TRUE(done.insert(r.index).second);
    });
    EXPECT_EQ(done.size(), jobs.size());
}

TEST(ResultStore, SerialisationIsDeterministicAndSorted)
{
    const std::vector<JobSpec> jobs = smallSweep();
    ExperimentPool pool(8);

    ResultStore s1, s2;
    s1.addAll(pool.run(jobs));
    // Add in reverse order the second time: sorting must normalise it.
    std::vector<JobResult> rs = pool.run(jobs);
    for (auto it = rs.rbegin(); it != rs.rend(); ++it)
        s2.add(*it);

    EXPECT_TRUE(s1.allOk());
    std::ostringstream j1, j2, c1, c2;
    s1.writeJson(j1);
    s2.writeJson(j2);
    s1.writeCsv(c1);
    s2.writeCsv(c2);
    EXPECT_EQ(j1.str(), j2.str());
    EXPECT_EQ(c1.str(), c2.str());
    EXPECT_NE(j1.str().find("\"cycles\""), std::string::npos);
    EXPECT_EQ(c1.str().rfind("suite,index,row,col,kind,", 0), 0u);

    // Submission order in the artifact, regardless of insertion order.
    const std::vector<JobResult> &sorted = s2.sorted();
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i].index, i);
}

TEST(ResultStore, CsvQuotesHostileFieldsPerRfc4180)
{
    ResultStore s;
    JobResult r;
    r.index = 0;
    r.suite = "fig,il";                    // embedded comma
    r.row = "say \"hi\"";                  // embedded quotes
    r.col = "two\nlines";                  // embedded newline
    r.kind = "run";
    r.run.workload = "name,with,commas";
    r.run.configName = "cfg\"quoted\"";
    r.run.cycles = 7;
    r.run.instructionsPerCore = 3;
    r.run.ipc = 0.5;
    r.note = "note, with \"both\"\r\n";
    r.metrics["k,ey"] = 1.0;
    s.add(std::move(r));

    std::ostringstream os;
    s.writeCsv(os);
    const std::string csv = os.str();

    // Header + one (logical) record; the record's embedded newlines are
    // inside quotes.
    EXPECT_EQ(csv.rfind("suite,index,row,col,kind,", 0), 0u);
    EXPECT_NE(csv.find("\"fig,il\",0"), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("\"two\nlines\""), std::string::npos);
    EXPECT_NE(csv.find("\"name,with,commas\""), std::string::npos);
    EXPECT_NE(csv.find("\"cfg\"\"quoted\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("\"note, with \"\"both\"\"\r\n\""),
              std::string::npos);
    EXPECT_NE(csv.find("\"k,ey=1\""), std::string::npos);

    // A well-behaved record still serialises unquoted.
    ResultStore clean;
    JobResult c;
    c.suite = "fig3";
    c.row = "mcf";
    c.col = "MuonTrap";
    c.kind = "run";
    c.run.workload = "mcf";
    c.run.configName = "MuonTrap";
    clean.add(std::move(c));
    std::ostringstream cs;
    clean.writeCsv(cs);
    EXPECT_EQ(cs.str().find('"'), std::string::npos);
}

TEST(Suites, EverySuiteBuildsAndFig4Renders)
{
    for (const std::string &name : suiteNames()) {
        const Suite s = buildSuite(name, quick());
        EXPECT_EQ(s.name, name);
        EXPECT_FALSE(s.jobs.empty()) << name;
        EXPECT_TRUE(s.render != nullptr) << name;
    }

    // End to end on the cheapest real figure: run fig4 restricted to
    // two rows by rebuilding an equivalent sweep, then render.
    Suite fig4 = buildSuite("fig4", quick());
    const std::size_t per_row = 6; // baseline + 5 schemes
    fig4.jobs.resize(2 * per_row); // first two benchmarks only
    ExperimentPool pool(4);
    const std::vector<JobResult> rs = pool.run(fig4.jobs);
    for (const JobResult &r : rs)
        EXPECT_TRUE(r.ok) << r.error;

    // Rendering needs all rows; check normalisation manually instead.
    const JobResult &base = rs[0];
    const JobResult &mt = rs[1];
    EXPECT_EQ(base.kind, "baseline");
    EXPECT_GT(base.run.cycles, 0u);
    EXPECT_GT(mt.run.cycles, 0u);
}

// ------------------------------------------------------- server suite

/** Serialise one pool run of the server suite (artifact bytes). */
std::string
serverSuiteJson(unsigned workers, const SuiteRunOptions &run_opt = {})
{
    const Suite suite = buildSuite("server", quick());
    ExperimentPool pool(workers);
    ResultStore store;
    const int rc = runSuite(suite, pool, /*render_table=*/false, &store,
                            run_opt);
    EXPECT_EQ(rc, 0);
    std::ostringstream os;
    store.writeJson(os);
    return os.str();
}

TEST(ServerSuite, ArtifactIsThreadCountInvariant)
{
    // The open-system determinism contract at the harness level: the
    // arrival schedules, percentiles and the serialised artifact are
    // byte-identical no matter how many workers ran the jobs.
    const std::string one = serverSuiteJson(1);
    const std::string two = serverSuiteJson(2);
    const std::string four = serverSuiteJson(4);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
}

TEST(ServerSuite, ResumeProducesByteIdenticalArtifact)
{
    const std::string oneshot = serverSuiteJson(1);

    // First attempt: run only a prefix of the suite, recording results
    // in a manifest (simulating a killed shard).
    const std::string manifest =
        ::testing::TempDir() + "server_resume.manifest";
    std::remove(manifest.c_str());
    {
        Suite partial = buildSuite("server", quick());
        partial.jobs.resize(partial.jobs.size() / 2);
        ExperimentPool pool(2);
        SuiteRunOptions ro;
        ro.resumeManifest = manifest;
        EXPECT_EQ(runSuite(partial, pool, false, nullptr, ro), 0);
    }

    // Second attempt: the full suite against the same manifest runs
    // only the missing jobs; the merged artifact must match the
    // uninterrupted run byte for byte.
    SuiteRunOptions ro;
    ro.resumeManifest = manifest;
    const std::string resumed = serverSuiteJson(2, ro);
    EXPECT_EQ(resumed, oneshot);
    std::remove(manifest.c_str());
}

TEST(ResumeManifest, NonCanonicalIndexIsSkippedAndItsJobReruns)
{
    // Four cheap jobs; the manifest holds a good record for job 0 and
    // records whose index is not a plain decimal ("-1", "+3", " 2").
    // Only job 0 may be skipped.
    std::atomic<unsigned> runs{0};
    Suite suite;
    suite.name = "resume";
    for (std::size_t i = 0; i < 4; ++i) {
        JobSpec j;
        j.index = i;
        j.suite = suite.name;
        j.row = "r" + std::to_string(i);
        j.custom = [&runs](const JobSpec &) {
            ++runs;
            return JobResult{};
        };
        suite.jobs.push_back(std::move(j));
    }

    JobResult rec;
    rec.suite = suite.name;
    rec.row = "r0";
    rec.index = 0;
    const std::string good = resumeManifestLine(rec);
    // Swap the index token (the third tab-separated field).
    auto withIndex = [&good](const std::string &idx) {
        const std::size_t a = good.find('\t', good.find('\t') + 1);
        const std::size_t b = good.find('\t', a + 1);
        return good.substr(0, a + 1) + idx + good.substr(b);
    };
    const std::string manifest =
        ::testing::TempDir() + "noncanonical.manifest";
    {
        std::ofstream f(manifest, std::ios::trunc);
        f << good << '\n'
          << withIndex("-1") << '\n'
          << withIndex("+3") << '\n'
          << withIndex(" 2") << '\n';
    }
    ASSERT_EQ(loadResumeManifest(manifest, suite.name).size(), 1u);

    ExperimentPool pool(1);
    ResultStore store;
    SuiteRunOptions ro;
    ro.resumeManifest = manifest;
    EXPECT_EQ(runSuite(suite, pool, false, &store, ro), 0);
    EXPECT_EQ(runs.load(), 3u);
    EXPECT_EQ(store.size(), 4u);
    std::remove(manifest.c_str());
}

TEST(Seeding, WorkloadsDifferingOnlyInSeedNeverShareWarmSnapshot)
{
    // Same name, asid and machine; only the generation seed differs. A
    // shared warm snapshot would restore one program into the other's
    // warm machine.
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    RunOptions warm = quick();
    warm.warmSnapshotDir = freshDir("mtrap_seed_warm");
    for (std::uint64_t seed : {1u, 2u}) {
        const Workload w = buildNamedWorkload("bzip2", seed);
        EXPECT_EQ(run({cfg, w, warm}).result.cycles,
                  run({cfg, w, quick()}).result.cycles)
            << "seed " << seed << " restored another program's machine";
    }
    EXPECT_EQ(fileCount(warm.warmSnapshotDir), 2u);
    std::filesystem::remove_all(warm.warmSnapshotDir);
}

TEST(Seeding, SeededRunsAreReproducible)
{
    JobSpec j;
    j.row = "bzip2";
    j.source = []() -> RunSource { return buildNamedWorkload("bzip2", 99); };
    j.cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    j.opt = quick();
    const JobResult a = runJob(j);
    const JobResult b = runJob(j);
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

} // namespace
} // namespace mtrap::harness

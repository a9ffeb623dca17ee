/**
 * @file
 * Tracing + interval time-series properties:
 *  - ring buffers drop oldest on overflow and count drops in the
 *    trace.dropped stat (truncation is detectable, never silent);
 *  - traces are deterministic: same seed => byte-identical Chrome JSON
 *    across repeated runs and across harness thread counts;
 *  - tracing is a pure observation: a traced run's cycles and stats
 *    (minus the trace group itself) equal the untraced run's;
 *  - interval stat sampling sums exactly to the end-of-run aggregates
 *    and leaves the run itself unchanged;
 *  - the Chrome trace-event exporter satisfies its own validator, and
 *    the validator rejects malformed/backwards traces.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/job.hh"
#include "harness/pool.hh"
#include "sim/runner.hh"
#include "trace/chrome_trace.hh"
#include "trace/stats_series.hh"
#include "trace/trace.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

RunOptions
shortRun()
{
    RunOptions opt;
    opt.warmupInstructions = 2'000;
    opt.measureInstructions = 10'000;
    return opt;
}

std::vector<Workload>
shortMix()
{
    return {buildWorkload(specProfile("mcf"), 1),
            buildWorkload(specProfile("gcc"), 2),
            buildWorkload(specProfile("hmmer"), 3)};
}

SchedParams
shortSched()
{
    SchedParams sp;
    sp.quantum = 2'000;
    return sp;
}

std::string
chromeTraceOf(const RunOutput &out)
{
    std::ostringstream os;
    writeChromeTrace(*out.system->tracer(), out.statSeries.get(), os);
    return os.str();
}

std::string
statsOf(System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** Stat dump without the tracer's own recorded/dropped lines (the only
 *  tree difference a traced run is allowed to introduce). */
std::string
statsWithoutTraceGroup(System &sys)
{
    std::istringstream in(statsOf(sys));
    std::string line, kept;
    while (std::getline(in, line))
        if (line.rfind("system.trace.", 0) != 0)
            kept += line + "\n";
    return kept;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f) << "cannot open " << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------- buffers

TEST(TraceBuffer, DropsOldestAndReportsIt)
{
    TraceBuffer buf(4); // rounded to 4
    for (std::uint64_t i = 0; i < 4; ++i) {
        TraceEvent e;
        e.when = i;
        e.arg0 = i;
        EXPECT_FALSE(buf.push(e)) << "no drop while filling";
    }
    TraceEvent e;
    e.when = 4;
    e.arg0 = 4;
    EXPECT_TRUE(buf.push(e)) << "push into a full ring drops";

    const std::vector<TraceEvent> evs = buf.ordered();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().arg0, 1u) << "oldest (0) was dropped";
    EXPECT_EQ(evs.back().arg0, 4u);
}

TEST(TraceBuffer, ClampKeepsTimestampsMonotonic)
{
    TraceBuffer clamped(8, /*clamp_monotonic=*/true);
    TraceBuffer raw(8, /*clamp_monotonic=*/false);
    TraceEvent a, b;
    a.when = 50;
    b.when = 30; // goes backwards
    clamped.push(a);
    clamped.push(b);
    raw.push(a);
    raw.push(b);
    EXPECT_EQ(clamped.ordered()[1].when, 50u);
    EXPECT_EQ(raw.ordered()[1].when, 30u)
        << "the scheduler ring must keep decision-order cycles exact";
}

TEST(Tracer, CountsRecordedAndDropped)
{
    StatGroup root("system");
    TraceParams params;
    params.bufferEntries = 4;
    Tracer t(1, params, &root);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(0, TraceEventKind::Squash, i);
    EXPECT_EQ(t.recordedCount(), 10u);
    EXPECT_EQ(t.droppedCount(), 6u);
    EXPECT_EQ(t.coreBuffer(0).size(), 4u);

    // The counters live in the stat tree, so a truncated trace is
    // visible in any stats dump.
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("system.trace.dropped = 6"),
              std::string::npos);
}

// ----------------------------------------------------------- determinism

TEST(TraceDeterminism, SameSeedSameBytes)
{
    RunOptions opt = shortRun();
    opt.trace = true;
    opt.statsInterval = 5'000;
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap);

    const Workload w1 = buildWorkload(specProfile("mcf"), 1);
    const Workload w2 = buildWorkload(specProfile("mcf"), 1);
    const std::string t1 =
        chromeTraceOf(run({cfg, w1, opt}));
    const std::string t2 =
        chromeTraceOf(run({cfg, w2, opt}));
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
}

TEST(TraceDeterminism, ScheduledRunSameBytesAndHasJobSpans)
{
    RunOptions opt = shortRun();
    opt.trace = true;
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);

    const std::string t1 = chromeTraceOf(
        run({cfg, MixSource{shortMix(), shortSched()}, opt}));
    const std::string t2 = chromeTraceOf(
        run({cfg, MixSource{shortMix(), shortSched()}, opt}));
    EXPECT_EQ(t1, t2);

    // Scheduler slots render as complete ("X") spans named after the
    // jobs admitted to the machine.
    EXPECT_NE(t1.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(t1.find("\"name\":\"mcf\""), std::string::npos);
    EXPECT_NE(t1.find("\"name\":\"gcc\""), std::string::npos);

    std::string err;
    EXPECT_TRUE(validateChromeTrace(t1, err)) << err;
}

TEST(ChromeTrace, EscapesControlCharactersInJobLabels)
{
    RunOptions opt = shortRun();
    opt.trace = true;
    std::vector<Workload> mix = shortMix();
    mix[0].name = "mcf\x01x";
    const std::string t = chromeTraceOf(
        run({SystemConfig::forScheme(Scheme::MuonTrap, 2),
             MixSource{mix, shortSched()}, opt}));
    EXPECT_NE(t.find("\"name\":\"mcf\\u0001x\""), std::string::npos);
    EXPECT_EQ(t.find('\x01'), std::string::npos)
        << "a raw control character is invalid JSON";
    std::string err;
    EXPECT_TRUE(validateChromeTrace(t, err)) << err;

    std::string raw = t;
    const std::size_t at = raw.find("\\u0001");
    raw.replace(at, 6, "\x01");
    EXPECT_FALSE(validateChromeTrace(raw, err))
        << "the validator must reject a raw control character";
}

TEST(TraceDeterminism, ThreadCountInvariantThroughHarness)
{
    // The same traced jobs through 1/2/4 worker threads must produce
    // byte-identical trace files (jobs share no state; traces carry no
    // wall clock).
    auto jobsFor = [](const std::string &dir) {
        std::vector<harness::JobSpec> jobs;
        const char *names[] = {"mcf", "gcc"};
        for (std::size_t i = 0; i < 2; ++i) {
            harness::JobSpec j;
            j.index = i;
            j.suite = "trace_test";
            j.row = names[i];
            j.col = "MuonTrap";
            const std::string name = names[i];
            j.source = [name]() -> RunSource {
                return buildWorkload(specProfile(name), 1);
            };
            j.cfg = SystemConfig::forScheme(Scheme::MuonTrap);
            j.opt = shortRun();
            j.tracePath = dir + "/job" + std::to_string(i)
                          + ".trace.json";
            jobs.push_back(std::move(j));
        }
        return jobs;
    };

    std::vector<std::vector<std::string>> contents;
    for (unsigned threads : {1u, 2u, 4u}) {
        const std::string dir =
            testing::TempDir() + "mtrap_trace_t"
            + std::to_string(threads);
        std::remove((dir + "/job0.trace.json").c_str());
        std::remove((dir + "/job1.trace.json").c_str());
        ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

        harness::ExperimentPool pool(threads);
        const auto results = pool.run(jobsFor(dir));
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.error;

        std::vector<std::string> files;
        files.push_back(slurp(dir + "/job0.trace.json"));
        files.push_back(slurp(dir + "/job1.trace.json"));
        contents.push_back(std::move(files));
    }
    EXPECT_EQ(contents[0], contents[1]);
    EXPECT_EQ(contents[0], contents[2]);

    std::string err;
    EXPECT_TRUE(validateChromeTrace(contents[0][0], err)) << err;
}

// ------------------------------------------------------- non-perturbation

TEST(TraceOverhead, TracedRunMatchesUntracedRun)
{
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);

    RunOptions plain = shortRun();
    RunOptions traced = shortRun();
    traced.trace = true;

    RunOutput a =
        run({cfg, MixSource{shortMix(), shortSched()}, plain});
    RunOutput b =
        run({cfg, MixSource{shortMix(), shortSched()}, traced});
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(statsOf(*a.system), statsWithoutTraceGroup(*b.system));
}

TEST(TraceOverhead, SampledRunMatchesUnsampledRun)
{
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap);
    const Workload w1 = buildWorkload(specProfile("gcc"), 1);
    const Workload w2 = buildWorkload(specProfile("gcc"), 1);

    RunOptions plain = shortRun();
    RunOptions sampled = shortRun();
    sampled.statsInterval = 1'000;

    RunOutput a = run({cfg, w1, plain});
    RunOutput b = run({cfg, w2, sampled});
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(statsOf(*a.system), statsOf(*b.system));
    ASSERT_NE(b.statSeries, nullptr);
    EXPECT_EQ(b.statSeries->rows().size(), 10u);
}

// ------------------------------------------------------------ time-series

TEST(StatSeries, IntervalsSumExactlyToAggregates)
{
    // 4-core gang-scheduled MuonTrap run with more jobs than cores (so
    // cores multiplex and context-switch flushes actually fire):
    // per-interval filter-flush and commit deltas must sum to exactly
    // the end-of-run counters.
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 4);
    RunOptions opt = shortRun();
    opt.statsInterval = 4'000; // of 4 * 10'000 total commits

    std::vector<Workload> mix;
    Asid asid = 1;
    for (const char *name :
         {"mcf", "gcc", "hmmer", "gamess", "lbm", "milc"})
        mix.push_back(buildWorkload(specProfile(name), asid++));

    SchedParams sp;
    sp.quantum = 1'000;
    RunOutput out = run({cfg, MixSource{mix, sp}, opt});
    ASSERT_NE(out.statSeries, nullptr);
    const StatSeries &series = *out.statSeries;
    EXPECT_EQ(series.rows().size(), 10u);

    std::uint64_t flush_total = 0, flush_series = 0;
    std::uint64_t committed_total = 0, committed_series = 0;
    for (unsigned c = 0; c < out.system->numCores(); ++c) {
        const std::string core = std::to_string(c);
        flush_total += out.system->mem()
                           .muontrap(c)
                           .flushCtxSwitch.value();
        const int fcol = series.columnIndex(
            "system.memsys.muontrap" + core + ".flush_ctx_switch");
        ASSERT_GE(fcol, 0);
        flush_series += series.columnTotal(
            static_cast<std::size_t>(fcol));

        committed_total += out.system->core(c).committedCount();
        const int ccol = series.columnIndex(
            "system.core" + core + ".committed");
        ASSERT_GE(ccol, 0);
        committed_series += series.columnTotal(
            static_cast<std::size_t>(ccol));
    }
    EXPECT_GT(flush_total, 0u) << "time-sharing must flush filters";
    EXPECT_EQ(flush_series, flush_total);
    EXPECT_EQ(committed_series, committed_total);

    for (std::size_t i = 0; i < series.rows().size(); ++i)
        EXPECT_GT(series.intervalIpc(i), 0.0) << "interval " << i;
}

TEST(StatSeries, CsvIsDeterministicAndShaped)
{
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap);
    RunOptions opt = shortRun();
    opt.statsInterval = 2'500;

    auto csvOnce = [&] {
        const Workload w = buildWorkload(specProfile("mcf"), 1);
        RunOutput out = run({cfg, w, opt});
        std::ostringstream os;
        out.statSeries->writeCsv(os);
        return os.str();
    };
    const std::string csv = csvOnce();
    EXPECT_EQ(csv, csvOnce());

    std::istringstream in(csv);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.rfind("cycle,instructions,ipc,", 0), 0u);
    unsigned rows = 0;
    for (std::string line; std::getline(in, line);)
        ++rows;
    EXPECT_EQ(rows, 4u); // 10'000 / 2'500
}

// -------------------------------------------------------------- validator

TEST(ChromeTraceValidator, AcceptsRealTraceRejectsTampered)
{
    RunOptions opt = shortRun();
    opt.trace = true;
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 2);
    std::string good = chromeTraceOf(
        run({cfg, MixSource{shortMix(), shortSched()}, opt}));

    std::string err;
    EXPECT_TRUE(validateChromeTrace(good, err)) << err;

    // Knock a span's timestamp backwards on its track.
    const std::size_t ts = good.rfind("\"ts\":");
    ASSERT_NE(ts, std::string::npos);
    std::string tampered = good.substr(0, ts + 5) + "0,"
        + good.substr(good.find(',', ts + 5) + 1);
    // Re-parse either fails (if we clipped syntax) or flags ordering —
    // both count as rejection; the tamper must not pass.
    EXPECT_FALSE(validateChromeTrace(tampered, err));
}

TEST(ChromeTraceValidator, RejectsMalformedDocuments)
{
    std::string err;
    EXPECT_FALSE(validateChromeTrace("not json", err));
    EXPECT_FALSE(validateChromeTrace("[]", err))
        << "top level must be an object";
    EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": 7}", err));
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"x\"}]}", err))
        << "events need a ph";
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\"}]}", err))
        << "non-metadata events need pid/tid/ts";
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":0,"
        "\"tid\":0,\"ts\":5}]}",
        err))
        << "X events need a dur";
    EXPECT_FALSE(validateChromeTrace(
        "{\"traceEvents\":["
        "{\"name\":\"a\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,"
        "\"ts\":10},"
        "{\"name\":\"b\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,"
        "\"ts\":4}]}",
        err))
        << "backwards timestamps on one track";
    EXPECT_TRUE(validateChromeTrace(
        "{\"traceEvents\":["
        "{\"name\":\"m\",\"ph\":\"M\",\"pid\":0,\"args\":{}},"
        "{\"name\":\"a\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,"
        "\"ts\":10}]}",
        err))
        << err;
}

} // namespace
} // namespace mtrap

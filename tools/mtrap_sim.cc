/**
 * @file
 * Command-line simulator front end: run any bundled workload under any
 * scheme (or a custom MuonTrap configuration), print normalised timing,
 * and optionally dump the full statistics as text or JSON.
 *
 * Usage:
 *   mtrap_sim --list
 *   mtrap_sim --workload mcf --scheme MuonTrap [options]
 *
 * Options:
 *   --workload NAME      SPEC-like or Parsec-like benchmark name
 *   --scheme NAME        Baseline | Insecure-L0 | MuonTrap |
 *                        MuonTrap-ClearMisspec | MuonTrap-ParallelL1 |
 *                        InvisiSpec-Spectre | InvisiSpec-Future |
 *                        STT-Spectre | STT-Future   (default MuonTrap)
 *   --instructions N     measured instructions per core (default 100000)
 *   --warmup N           warmup instructions per core (default 30000)
 *   --seed S             nonzero: deterministically re-randomise the
 *                        synthetic program generation (the same path
 *                        mtrap_batch --seed uses); 0 = the profiles' own
 *                        seeds (default)
 *   --filter-size BYTES  data filter-cache size (default 2048)
 *   --filter-assoc N     data filter-cache associativity (default 4)
 *   --baseline           also run the unprotected baseline (same run
 *                        lengths, seed and workloads; no tracing,
 *                        sampling or snapshots) and report normalised
 *                        execution time
 *   --stats              dump full statistics (text)
 *   --json               dump full statistics (JSON)
 *
 * Gang-scheduler (multiprogramming) options:
 *   --timeshare NAME     add another workload to time-share the machine
 *                        with --workload (repeatable); enables the gang
 *                        scheduler, each job in its own address space
 *   --cores N            cores to schedule across (default 4 when
 *                        time-sharing; raised to the widest job)
 *   --quantum CYCLES     scheduler time slice (default 50000)
 *   --no-gang            place multi-threaded jobs without gang
 *                        (slot-aligned) co-scheduling
 *   --no-migrate         disable load-balancing migration onto idle
 *                        cores
 *   --affinity           prefer migrating a job back onto the core that
 *                        last ran it (cache-affinity-aware migration)
 *
 * Open-system server options (see src/sim/arrival.hh; no --workload —
 * jobs arrive continuously, run to a finite service demand and leave):
 *   --arrivals N         enable server mode: admit N jobs over the run
 *                        from a deterministic seeded arrival process,
 *                        then print sojourn/wait latency percentiles,
 *                        occupancy, throughput and deadline misses
 *   --arrival-pattern P  poisson (default) | burst
 *   --arrival-mean C     mean inter-arrival gap in cycles (default
 *                        40000); the load knob
 *   --arrival-seed S     arrival-schedule seed (default 1)
 *   --arrival-mix NAME   add NAME to the profile mix jobs draw from
 *                        (repeatable; default: a six-benchmark SPEC mix)
 *   --burst-size N       jobs per burst (burst pattern, default 4)
 *   --burst-spacing C    in-burst arrival spacing (default 200)
 *   --service-min N      min per-job service demand, committed
 *                        instructions (default 20000)
 *   --service-max N      max per-job service demand (default 60000)
 *   --deadline-factor F  per-job deadline = arrival + F * service
 *                        cycles; 0 = no deadlines (default)
 *   --max-weight W       per-job scheduler weight drawn from [1, W]
 *                        (weighted quanta; default 1 = all equal)
 *   --sleep-period N     every job sleeps after N commits (IO-wait
 *                        emulation; default 0 = never)
 *   --sleep-duration C   sleep length in cycles (default 0)
 *
 * Tracing & time-series options (see src/trace/):
 *   --trace FILE         record cycle-stamped events (context switches,
 *                        squashes, scheduler decisions, filter flushes,
 *                        spec-buffer clears, L2 misses, bus NACKs) and
 *                        export Chrome trace-event JSON — load FILE in
 *                        Perfetto (ui.perfetto.dev) or chrome://tracing
 *   --trace-csv FILE     same events as a flat cycle-ordered CSV
 *   --stats-interval N   sample the stat tree every N committed
 *                        instructions of the measured phase
 *   --stats-out FILE     write the interval time-series CSV
 *                        (cycle,instructions,ipc,<counter columns>)
 *
 * Checkpointing options (see src/snapshot/ and README "Checkpointing"):
 *   --snapshot-out FILE  save the warm machine (post-warmup, pre-stat-
 *                        reset) as a versioned snapshot
 *   --snapshot-in FILE   restore the warm machine from FILE instead of
 *                        running the warmup phase; the measured phase
 *                        is bit-identical to the monolithic run
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "common/checked_io.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "harness/job.hh"
#include "sim/json_stats.hh"
#include "sim/runner.hh"
#include "trace/chrome_trace.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace mtrap;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mtrap_sim --list | --workload NAME "
                 "[--scheme NAME] [--instructions N]\n"
                 "                 [--warmup N] [--seed S] "
                 "[--filter-size B] [--filter-assoc N]\n"
                 "                 [--baseline] [--stats] [--json]\n"
                 "                 [--timeshare NAME]... [--cores N] "
                 "[--quantum C]\n"
                 "                 [--no-gang] [--no-migrate] "
                 "[--affinity]\n"
                 "                 [--trace FILE] [--trace-csv FILE]\n"
                 "                 [--stats-interval N] "
                 "[--stats-out FILE]\n"
                 "                 [--snapshot-out FILE] "
                 "[--snapshot-in FILE]\n"
                 "   or: mtrap_sim --arrivals N [--arrival-pattern P] "
                 "[--arrival-mean C]\n"
                 "                 [--arrival-seed S] "
                 "[--arrival-mix NAME]... [--burst-size N]\n"
                 "                 [--burst-spacing C] [--service-min N] "
                 "[--service-max N]\n"
                 "                 [--deadline-factor F] [--max-weight W]"
                 " [--sleep-period N]\n"
                 "                 [--sleep-duration C] plus scheme/"
                 "scheduler/trace options\n");
    std::exit(1);
}

/** Strict decimal parse; usage() (not abort) on junk like --seed abc. */
std::uint64_t
parseNumber(const std::string &s)
{
    std::uint64_t v;
    if (!parseU64(s, v))
        usage();
    return v;
}

/** Export whatever tracing/time-series outputs the flags asked for. */
void
writeTraceOutputs(System &sys, const StatSeries *series,
                  const std::string &trace_path,
                  const std::string &trace_csv_path,
                  const std::string &stats_out_path)
{
    const Tracer *t = sys.tracer();
    if (!trace_path.empty()) {
        CheckedOfstream f(trace_path, "chrome trace");
        writeChromeTrace(*t, series, f.stream());
        f.finish();
        std::printf("chrome trace (%llu events, %llu dropped) written "
                    "to %s\n",
                    static_cast<unsigned long long>(t->recordedCount()),
                    static_cast<unsigned long long>(t->droppedCount()),
                    trace_path.c_str());
    }
    if (!trace_csv_path.empty()) {
        CheckedOfstream f(trace_csv_path, "event CSV");
        writeTraceCsv(*t, f.stream());
        f.finish();
        std::printf("event CSV written to %s\n", trace_csv_path.c_str());
    }
    if (!stats_out_path.empty()) {
        CheckedOfstream f(stats_out_path, "stat time-series");
        series->writeCsv(f.stream());
        f.finish();
        std::printf("stat time-series (%zu intervals) written to %s\n",
                    series->rows().size(), stats_out_path.c_str());
    }
}

int
runTool(int argc, char **argv)
{
    using namespace mtrap;

    std::string workload_name;
    Scheme scheme = Scheme::MuonTrap;
    RunOptions opt; // defaults: kDefault{Warmup,Measure}Instructions
    std::uint64_t seed = 0;
    std::uint64_t filter_size = 0;
    unsigned filter_assoc = 0;
    bool with_baseline = false, stats = false, json = false;
    std::vector<std::string> timeshare;
    unsigned cores = 0;
    SchedParams sched;
    std::string trace_path, trace_csv_path, stats_out_path;
    bool server = false;
    ArrivalParams arrivals;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list") {
            std::printf("SPEC-like workloads:\n");
            for (const std::string &n : specBenchmarkNames())
                std::printf("  %s\n", n.c_str());
            std::printf("Parsec-like workloads (4 threads):\n");
            for (const std::string &n : parsecBenchmarkNames())
                std::printf("  %s\n", n.c_str());
            std::printf("Schemes:\n");
            for (Scheme s : allSchemes())
                std::printf("  %s\n", schemeName(s));
            return 0;
        } else if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--scheme") {
            scheme = parseScheme(next());
        } else if (arg == "--instructions") {
            opt.measureInstructions = parseNumber(next());
        } else if (arg == "--warmup") {
            opt.warmupInstructions = parseNumber(next());
        } else if (arg == "--seed") {
            seed = parseNumber(next());
        } else if (arg == "--filter-size") {
            filter_size = parseNumber(next());
        } else if (arg == "--filter-assoc") {
            filter_assoc = static_cast<unsigned>(parseNumber(next()));
        } else if (arg == "--timeshare") {
            timeshare.push_back(next());
        } else if (arg == "--cores") {
            cores = static_cast<unsigned>(parseNumber(next()));
        } else if (arg == "--quantum") {
            sched.quantum = parseNumber(next());
        } else if (arg == "--no-gang") {
            sched.gang = false;
        } else if (arg == "--no-migrate") {
            sched.migrate = false;
        } else if (arg == "--affinity") {
            sched.affinity = true;
        } else if (arg == "--arrivals") {
            server = true;
            arrivals.jobs = parseNumber(next());
        } else if (arg == "--arrival-pattern") {
            const std::string p = next();
            if (p == "poisson")
                arrivals.pattern = ArrivalPattern::Poisson;
            else if (p == "burst")
                arrivals.pattern = ArrivalPattern::Burst;
            else
                usage();
        } else if (arg == "--arrival-mean") {
            arrivals.meanInterarrival = parseNumber(next());
        } else if (arg == "--arrival-seed") {
            arrivals.seed = parseNumber(next());
        } else if (arg == "--arrival-mix") {
            arrivals.profiles.push_back(next());
        } else if (arg == "--burst-size") {
            arrivals.burstSize =
                static_cast<unsigned>(parseNumber(next()));
        } else if (arg == "--burst-spacing") {
            arrivals.burstSpacing = parseNumber(next());
        } else if (arg == "--service-min") {
            arrivals.serviceMinCommits = parseNumber(next());
        } else if (arg == "--service-max") {
            arrivals.serviceMaxCommits = parseNumber(next());
        } else if (arg == "--deadline-factor") {
            arrivals.deadlineFactor =
                static_cast<unsigned>(parseNumber(next()));
        } else if (arg == "--max-weight") {
            arrivals.maxWeight =
                static_cast<unsigned>(parseNumber(next()));
        } else if (arg == "--sleep-period") {
            arrivals.sleepPeriodCommits = parseNumber(next());
        } else if (arg == "--sleep-duration") {
            arrivals.sleepDurationCycles = parseNumber(next());
        } else if (arg == "--trace") {
            trace_path = next();
            opt.trace = true;
        } else if (arg == "--trace-csv") {
            trace_csv_path = next();
            opt.trace = true;
        } else if (arg == "--stats-interval") {
            opt.statsInterval = parseNumber(next());
        } else if (arg == "--stats-out") {
            stats_out_path = next();
        } else if (arg == "--snapshot-out") {
            opt.snapshotOut = next();
        } else if (arg == "--snapshot-in") {
            opt.snapshotIn = next();
        } else if (arg == "--baseline") {
            with_baseline = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
        }
    }
    if (workload_name.empty() && !server)
        usage();
    if (!stats_out_path.empty() && !opt.statsInterval)
        fatal("--stats-out needs --stats-interval");
    if (!server && timeshare.empty() &&
        (cores || !sched.gang || !sched.migrate || sched.affinity))
        warn("scheduler flags have no effect without --timeshare");

    if (server && (!workload_name.empty() || !timeshare.empty()))
        fatal("--arrivals replaces --workload/--timeshare (jobs come "
              "from the arrival process; shape the mix with "
              "--arrival-mix)");

    // One source per mode: an open-system arrival stream, a gang-
    // scheduled mix, or a single workload. --seed re-randomises the
    // synthetic program generation.
    RunSource source;
    if (server) {
        source = ServerSource{arrivals, sched};
    } else if (!timeshare.empty()) {
        MixSource mix{{}, sched};
        Asid asid = 1;
        mix.jobs.push_back(harness::buildNamedWorkload(workload_name,
                                                       seed, asid++));
        for (const std::string &name : timeshare)
            mix.jobs.push_back(
                harness::buildNamedWorkload(name, seed, asid++));
        source = std::move(mix);
    } else {
        source = harness::buildNamedWorkload(workload_name, seed);
    }
    const bool single = std::holds_alternative<Workload>(source);

    // run() widens the machine to the widest job; scheduled modes
    // default to four cores.
    const unsigned machine_cores = single ? 1 : cores ? cores : 4;
    RunSpec spec{SystemConfig::forScheme(scheme, machine_cores),
                 std::move(source), opt, schemeName(scheme)};
    if (filter_size)
        spec.cfg.mem.mt.dataParams.sizeBytes = filter_size;
    if (filter_assoc)
        spec.cfg.mem.mt.dataParams.assoc = filter_assoc;

    const RunOutput out = run(spec);
    const RunResult &res = out.result;
    if (server)
        std::printf("%s, %llu %s arrivals (mean gap %llu cycles) on "
                    "%u cores, quantum %llu:\n",
                    schemeName(scheme),
                    static_cast<unsigned long long>(arrivals.jobs),
                    arrivalPatternName(arrivals.pattern),
                    static_cast<unsigned long long>(
                        arrivals.meanInterarrival),
                    out.system->numCores(),
                    static_cast<unsigned long long>(sched.quantum));
    else if (!single)
        std::printf("%s on %s (%u cores, quantum %llu): %llu cycles, "
                    "IPC %.3f\n",
                    schemeName(scheme), res.workload.c_str(),
                    out.system->numCores(),
                    static_cast<unsigned long long>(sched.quantum),
                    static_cast<unsigned long long>(res.cycles), res.ipc);
    else
        std::printf("%s on %s: %llu cycles, IPC %.3f\n",
                    schemeName(scheme), res.workload.c_str(),
                    static_cast<unsigned long long>(res.cycles), res.ipc);
    if (server)
        out.report.print(std::cout);
    if (const Scheduler *s = out.system->scheduler())
        std::printf("context switches %llu, migrations %llu, idle "
                    "slots %llu\n",
                    static_cast<unsigned long long>(s->switches()),
                    static_cast<unsigned long long>(s->migrations()),
                    static_cast<unsigned long long>(s->idleSlots()));
    writeTraceOutputs(*out.system, out.statSeries.get(), trace_path,
                      trace_csv_path, stats_out_path);

    // The baseline shares only the run lengths and the workload source
    // (the same seeded programs): tracing, sampling and snapshot files
    // belong to the main run.
    if (with_baseline && !(server && scheme == Scheme::Baseline)) {
        RunSpec base{SystemConfig::forScheme(Scheme::Baseline,
                                             machine_cores),
                     spec.source, {}, schemeName(Scheme::Baseline)};
        base.opt.warmupInstructions = opt.warmupInstructions;
        base.opt.measureInstructions = opt.measureInstructions;
        const RunOutput b = run(base);
        if (server) {
            if (b.report.sojournP95)
                std::printf("p95 sojourn vs scheduled baseline: %.3f\n",
                            static_cast<double>(out.report.sojournP95)
                                / static_cast<double>(
                                    b.report.sojournP95));
        } else {
            std::printf("normalised execution time vs %sbaseline: "
                        "%.3f\n",
                        single ? "" : "scheduled ",
                        normalizedTime(res, b.result));
        }
    }
    if (stats)
        out.system->dumpStats(std::cout);
    if (json)
        dumpStatsJson(out.system->root(), std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Snapshot validation failures and checked-write errors surface as
    // exceptions; turn them into a clean nonzero exit with the message.
    try {
        return runTool(argc, argv);
    } catch (const std::exception &e) {
        mtrap::fatal("%s", e.what());
    }
}

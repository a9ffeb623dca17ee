#include "perf/perf_suite.hh"

#include <chrono>
#include <cmath>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/log.hh"
#include "common/json.hh"
#include "sim/runner.hh"
#include "sim/scheduler.hh"
#include "workload/attacks.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap::perf
{

namespace
{

/** Process peak RSS in bytes (0 where getrusage is unavailable).
 *  ru_maxrss is kilobytes on Linux, bytes on macOS. */
std::uint64_t
peakRssBytes()
{
#if defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#elif defined(__unix__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#else
    return 0;
#endif
}

/** Lifetime work of every core in `sys`; taken just before the system
 *  is destroyed. */
SimWork
workOf(System &sys)
{
    SimWork w;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        w.instructions += sys.core(c).committedEver();
        w.cycles += sys.core(c).now();
    }
    return w;
}

RunOptions
runOptionsFor(const PerfOptions &opt)
{
    RunOptions ro;
    ro.measureInstructions = opt.measureInstructions;
    ro.warmupInstructions = opt.warmupInstructions;
    return ro;
}

/** Scheme-on-workload scenario body shared by most of the suite. */
PerfScenario
schemeScenario(std::string name, std::string description,
               std::function<Workload()> workload, Scheme scheme)
{
    PerfScenario s;
    s.name = std::move(name);
    s.description = std::move(description);
    s.body = [workload = std::move(workload),
              scheme](const PerfOptions &opt) {
        return workOf(*run({SystemConfig::forScheme(scheme), workload(),
                            runOptionsFor(opt), schemeName(scheme)})
                           .system);
    };
    return s;
}

SimWork
contextSwitchBody(const PerfOptions &opt)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
    System sys(cfg);
    const Workload w1 = buildSpecWorkload("hmmer");
    const Workload w2 = buildSpecWorkload("gamess");
    const Workload w3 = buildSpecWorkload("mcf");
    const Workload w4 = buildSpecWorkload("sjeng");
    for (const Workload *w : {&w1, &w2, &w3, &w4})
        if (w->init)
            w->init(sys.mem());

    // A deliberately small quantum so the run is dominated by drains,
    // filter flushes and cold-filter restarts — the context-switch cost
    // MuonTrap's design accepts (§4.3).
    Scheduler sched({&sys.core(0)}, SchedParams{/*quantum=*/5'000});
    sched.addTask(&w1.threadPrograms[0], 1);
    sched.addTask(&w2.threadPrograms[0], 2);
    sched.addTask(&w3.threadPrograms[0], 3);
    sched.addTask(&w4.threadPrograms[0], 4);
    sched.run(opt.measureInstructions + opt.warmupInstructions);
    return workOf(sys);
}

/**
 * 4-core multiprogrammed SPEC mix under the gang scheduler: eight
 * single-threaded jobs (distinct asids) time-share four MuonTrap cores,
 * so the run mixes steady-state simulation with constant migration /
 * filter-flush pressure — the paper's §6 time-sharing scenario.
 */
SimWork
schedGangSpecMixBody(const PerfOptions &opt)
{
    SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 4);
    System sys(cfg);
    SchedParams sp;
    sp.quantum = 20'000;
    sys.attachScheduler(sp);

    const char *names[] = {"hmmer", "gamess", "mcf",  "sjeng",
                           "gcc",   "astar",  "milc", "libquantum"};
    Asid asid = 1;
    for (const char *name : names)
        sys.addScheduledWorkload(
            buildWorkload(specProfile(name), asid++));
    sys.runScheduled(
        (opt.measureInstructions + opt.warmupInstructions) * 4);
    return workOf(sys);
}

/**
 * Time-shared PARSEC under InvisiSpec: two four-thread gangs alternate
 * on the same four cores, so every quantum boundary context-switches
 * the whole machine (drain + speculative-buffer clear on all cores).
 */
SimWork
schedTimesharedParsecBody(const PerfOptions &opt)
{
    SystemConfig cfg =
        SystemConfig::forScheme(Scheme::InvisiSpecSpectre, 4);
    System sys(cfg);
    SchedParams sp;
    sp.quantum = 20'000;
    sys.attachScheduler(sp);
    sys.addScheduledWorkload(
        buildWorkload(parsecProfile("canneal", 4), 1));
    sys.addScheduledWorkload(
        buildWorkload(parsecProfile("streamcluster", 4), 2));
    sys.runScheduled(
        (opt.measureInstructions + opt.warmupInstructions) * 4);
    return workOf(sys);
}

/**
 * Construction/teardown-dominated churn: many short-lived Table-1
 * systems built, briefly run and destroyed, alternating schemes —
 * modelled on the attack vignette and harness sweep shapes whose cost
 * is gated by System construction (stat-sheet setup, cache metadata,
 * filter structures), not steady-state simulation. This is the
 * scenario the perf-regression gate watches for construction-cost
 * regressions.
 */
SimWork
systemConstructChurnBody(const PerfOptions &opt)
{
    // Enough per-system work to register as simulation work while
    // leaving the run construction-dominated.
    constexpr std::uint64_t kSlice = 400;
    const unsigned systems = opt.quick ? 16 : 96;
    const Scheme schemes[] = {Scheme::MuonTrap, Scheme::Baseline,
                              Scheme::InvisiSpecSpectre,
                              Scheme::SttSpectre};
    // One workload, reused: program generation is not what this
    // scenario measures.
    const Workload w = buildSpecWorkload("gcc");
    SimWork work;
    for (unsigned n = 0; n < systems; ++n) {
        SystemConfig cfg =
            SystemConfig::forScheme(schemes[n % 4], 1);
        System sys(cfg);
        sys.loadWorkload(w);
        sys.run(kSlice);
        work += workOf(sys);
    }
    return work;
}

/**
 * Snapshot-centric warm-fork shape: warm one 4-core MuonTrap machine,
 * serialize it, then fork several fresh systems off the in-memory
 * image and run a short measured slice from each — the sweep pattern
 * mtrap_batch --warm-snapshot executes per cache hit. With the
 * measured slices deliberately small, save/restore cost dominates, so
 * the regression gate watches serialization throughput; the scenario
 * also asserts the forks observe identical machines (same makespan),
 * so a perf run can never bless a snapshot layer that drifted.
 */
SimWork
snapshotWarmForkBody(const PerfOptions &opt)
{
    constexpr std::uint64_t kCtx = 1;
    const Workload w = buildParsecWorkload("canneal", 4);
    const SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 4);

    System warm(cfg);
    warm.loadWorkload(w);
    warm.run(opt.warmupInstructions);
    const std::vector<std::uint8_t> image = warm.saveSnapshot(kCtx);
    SimWork work = workOf(warm);

    const unsigned forks = opt.quick ? 2 : 6;
    const std::uint64_t slice = opt.measureInstructions / 8 + 1;
    Cycle makespan = 0;
    for (unsigned n = 0; n < forks; ++n) {
        System sys(cfg);
        sys.loadWorkload(w);
        sys.restoreSnapshot(image, kCtx);
        sys.run(slice);
        work += workOf(sys);
        if (n == 0)
            makespan = sys.maxCommitCycle();
        else if (sys.maxCommitCycle() != makespan)
            throw std::runtime_error(
                "snapshot warm-fork: forked runs diverged");
    }
    return work;
}

/**
 * Open-system server shape (sim/arrival.hh): a seeded arrival stream
 * admits jobs into the gang scheduler mid-run, each running to a
 * finite service demand with QoS attributes (weights, deadlines).
 * Tracks the cost of arrival polling, mid-run admission (workload
 * build + placement), weighted designation and job-record accounting
 * on top of the usual scheduled simulation. Asserts every job
 * completes, so a perf run can never bless a scheduler that strands
 * work.
 */
SimWork
serverBody(const PerfOptions &opt, ArrivalPattern pattern)
{
    ArrivalParams ap;
    ap.pattern = pattern;
    ap.jobs = opt.quick ? 6 : 24;
    ap.serviceMinCommits = opt.measureInstructions / 8 + 1;
    ap.serviceMaxCommits = opt.measureInstructions / 2 + 1;
    ap.meanInterarrival = opt.measureInstructions / 4 + 1;
    ap.deadlineFactor = 6;
    ap.maxWeight = 2;

    SchedParams sp;
    sp.quantum = 20'000;
    sp.affinity = true;

    const RunOutput out = run({SystemConfig::forScheme(Scheme::MuonTrap, 4),
                               ServerSource{ap, sp}, {}, "MuonTrap"});
    if (out.report.completed != ap.jobs)
        throw std::runtime_error("server scenario: not every admitted "
                                 "job completed");
    return workOf(*out.system);
}

SimWork
attackVignetteBody(const PerfOptions &opt)
{
    // The headline prime-and-probe vignette, on both sides of the fence.
    // Besides timing the squash/flush-heavy choreography, assert the
    // security outcome so a perf run can never silently bless a broken
    // build. A single pair takes well under a millisecond, so full mode
    // runs a few to keep the wall-clock sample meaningful.
    const unsigned iters = opt.quick ? 1 : 3;
    SimWork work;
    for (unsigned i = 0; i < iters; ++i) {
        AttackOutcome base = runSpectrePrimeProbe(Scheme::Baseline);
        if (!base.leaked)
            throw std::runtime_error("attack vignette: baseline no "
                                     "longer leaks (simulation broken?)");
        AttackOutcome mt = runSpectrePrimeProbe(Scheme::MuonTrap);
        if (mt.leaked)
            throw std::runtime_error("attack vignette: MuonTrap leaked");
        for (const AttackOutcome *o : {&base, &mt})
            work += {o->simInstructions, o->simCycles};
    }
    return work;
}

} // namespace

PerfOptions
PerfOptions::quickPreset()
{
    PerfOptions o;
    o.measureInstructions = 20'000;
    o.warmupInstructions = 5'000;
    o.repeats = 1;
    o.quick = true;
    return o;
}

std::vector<PerfScenario>
defaultScenarios()
{
    std::vector<PerfScenario> s;

    s.push_back(schemeScenario(
        "spec-gcc-1core-baseline",
        "1-core SPEC profile (gcc) on the unprotected baseline",
        [] { return buildSpecWorkload("gcc"); }, Scheme::Baseline));

    s.push_back(schemeScenario(
        "spec-mcf-1core-muontrap",
        "1-core memory-bound SPEC profile (mcf) under full MuonTrap",
        [] { return buildSpecWorkload("mcf"); }, Scheme::MuonTrap));

    s.push_back(schemeScenario(
        "parsec-canneal-4core-muontrap",
        "4-core PARSEC profile (canneal) under full MuonTrap",
        [] { return buildParsecWorkload("canneal", 4); },
        Scheme::MuonTrap));

    s.push_back(schemeScenario(
        "parsec-streamcluster-4core-invisispec",
        "4-core PARSEC profile (streamcluster) under InvisiSpec-Spectre",
        [] { return buildParsecWorkload("streamcluster", 4); },
        Scheme::InvisiSpecSpectre));

    s.push_back(schemeScenario(
        "parsec-blackscholes-4core-stt",
        "4-core PARSEC profile (blackscholes) under STT-Future",
        [] { return buildParsecWorkload("blackscholes", 4); },
        Scheme::SttFuture));

    s.push_back(schemeScenario(
        "spec-sjeng-decodebound-1core-baseline",
        "decode-bound 1-core SPEC profile (sjeng: branchy with a large "
        "code footprint, few memory stalls) — stresses the pre-decoded "
        "fetch path",
        [] { return buildSpecWorkload("sjeng"); }, Scheme::Baseline));

    s.push_back(schemeScenario(
        "parsec-freqmine-funcread-4core-muontrap",
        "functional-read-heavy 4-core PARSEC profile (freqmine: pointer "
        "chasing and random reads over big shared trees) under full "
        "MuonTrap — stresses functional reads (address translation "
        "and the page-compressed word store's directory probe and "
        "popcount rank)",
        [] { return buildParsecWorkload("freqmine", 4); },
        Scheme::MuonTrap));

    PerfScenario sched;
    sched.name = "sched-context-switch-muontrap";
    sched.description =
        "four SPEC profiles round-robined on one MuonTrap core with a "
        "5k-cycle quantum (drain + filter-flush heavy)";
    sched.body = contextSwitchBody;
    s.push_back(std::move(sched));

    PerfScenario gang;
    gang.name = "sched-gang-specmix4-muontrap";
    gang.description =
        "eight SPEC jobs gang-scheduled across four MuonTrap cores "
        "(20k-cycle quantum, migration + per-switch filter flush)";
    gang.body = schedGangSpecMixBody;
    s.push_back(std::move(gang));

    PerfScenario share;
    share.name = "sched-timeshare-parsec-invisispec";
    share.description =
        "two 4-thread PARSEC gangs time-sharing four InvisiSpec cores "
        "(whole-machine switch every 20k-cycle quantum)";
    share.body = schedTimesharedParsecBody;
    s.push_back(std::move(share));

    PerfScenario churn;
    churn.name = "system-construct-churn";
    churn.description =
        "build/teardown-dominated: dozens of short-lived 1-core systems "
        "across four schemes, a few hundred instructions each (tracks "
        "System-construction cost)";
    churn.body = systemConstructChurnBody;
    s.push_back(std::move(churn));

    PerfScenario snap;
    snap.name = "snapshot-warm-fork-muontrap";
    snap.description =
        "warm one 4-core MuonTrap machine, serialize it, fork several "
        "fresh systems off the image and run short slices (tracks "
        "snapshot save/restore cost and the warm-fork sweep shape)";
    snap.body = snapshotWarmForkBody;
    s.push_back(std::move(snap));

    PerfScenario poisson;
    poisson.name = "server-poisson-muontrap";
    poisson.description =
        "open-system server: Poisson job arrivals admitted mid-run "
        "into four gang-scheduled MuonTrap cores (weighted quanta, "
        "deadlines, cache-affinity migration)";
    poisson.body = [](const PerfOptions &o) {
        return serverBody(o, ArrivalPattern::Poisson);
    };
    s.push_back(std::move(poisson));

    PerfScenario burst;
    burst.name = "server-burst-muontrap";
    burst.description =
        "open-system server under bursty arrivals: same offered load "
        "as the Poisson scenario delivered in batches (queue build-up, "
        "heavy migration and admission churn)";
    burst.body = [](const PerfOptions &o) {
        return serverBody(o, ArrivalPattern::Burst);
    };
    s.push_back(std::move(burst));

    PerfScenario attack;
    attack.name = "attack-spectre-prime-probe";
    attack.description =
        "Spectre prime-and-probe choreography on baseline (must leak) "
        "and MuonTrap (must not)";
    attack.body = attackVignetteBody;
    s.push_back(std::move(attack));

    return s;
}

std::vector<ScenarioResult>
runScenarios(const std::vector<PerfScenario> &scenarios,
             const PerfOptions &opt, std::ostream *progress)
{
    using Clock = std::chrono::steady_clock;

    std::vector<ScenarioResult> results;
    results.reserve(scenarios.size());

    for (const PerfScenario &sc : scenarios) {
        ScenarioResult r;
        r.name = sc.name;

        const unsigned reps = opt.repeats ? opt.repeats : 1;
        for (unsigned rep = 0; rep < reps && r.ok; ++rep) {
            const auto t0 = Clock::now();
            SimWork work;
            try {
                work = sc.body(opt);
            } catch (const std::exception &e) {
                r.ok = false;
                r.error = e.what();
                break;
            }
            const double wall =
                std::chrono::duration<double>(Clock::now() - t0).count();
            if (rep == 0 || wall < r.wallSeconds) {
                r.wallSeconds = wall;
                r.instructions = work.instructions;
                r.simCycles = work.cycles;
            }
        }

        r.repeats = reps;
        r.peakRssBytes = peakRssBytes();

        if (r.ok && r.instructions == 0) {
            r.ok = false;
            r.error = "scenario reported zero simulation work";
        }

        if (progress) {
            if (r.ok) {
                *progress << strfmt(
                    "perf: %-40s %8.3fs  %10.0f kinst/s  %10.0f kcyc/s\n",
                    r.name.c_str(), r.wallSeconds,
                    r.instructionsPerSecond() / 1e3,
                    r.cyclesPerSecond() / 1e3);
            } else {
                *progress << "perf: " << r.name
                          << " FAILED: " << r.error << "\n";
            }
            progress->flush();
        }
        results.push_back(std::move(r));
    }
    return results;
}

double
aggregateScoreKips(const std::vector<ScenarioResult> &results)
{
    if (results.empty())
        return 0.0;
    double logsum = 0.0;
    for (const ScenarioResult &r : results) {
        const double ips = r.ok ? r.instructionsPerSecond() : 0.0;
        if (ips <= 0.0)
            return 0.0;
        logsum += std::log(ips / 1e3);
    }
    return std::exp(logsum / static_cast<double>(results.size()));
}

void
writeBenchJson(const std::vector<ScenarioResult> &results,
               const PerfOptions &opt, std::ostream &os)
{
    bool all_ok = true;
    double wall_total = 0.0;
    for (const ScenarioResult &r : results) {
        all_ok = all_ok && r.ok;
        wall_total += r.wallSeconds;
    }

    os << "{\n";
    os << "  \"schema\": \"mtrap-bench-v1\",\n";
    os << "  \"mode\": \"" << (opt.quick ? "quick" : "full") << "\",\n";
    os << "  \"work_version\": " << kBenchWorkVersion << ",\n";
    os << "  \"repeats\": " << opt.repeats << ",\n";
    os << "  \"measure_instructions\": " << opt.measureInstructions
       << ",\n";
    os << "  \"warmup_instructions\": " << opt.warmupInstructions
       << ",\n";
    os << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        os << "    {\"name\": \"" << jsonEscape(r.name) << "\""
           << ", \"ok\": " << (r.ok ? "true" : "false")
           << ", \"wall_seconds\": " << strfmt("%.6f", r.wallSeconds)
           << ", \"sim_cycles\": " << r.simCycles
           << ", \"instructions\": " << r.instructions
           << ", \"cycles_per_second\": "
           << strfmt("%.1f", r.cyclesPerSecond())
           << ", \"instructions_per_second\": "
           << strfmt("%.1f", r.instructionsPerSecond())
           << ", \"repeats\": " << r.repeats
           << ", \"peak_rss_bytes\": " << r.peakRssBytes;
        if (!r.ok)
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
#ifdef MTRAP_BUILD_TYPE
    os << "  \"host\": {\"build_type\": \"" << MTRAP_BUILD_TYPE
       << "\"},\n";
#else
    os << "  \"host\": {\"build_type\": \"unknown\"},\n";
#endif
    os << "  \"aggregate\": {\"score_kips\": "
       << strfmt("%.1f", aggregateScoreKips(results))
       << ", \"wall_seconds_total\": " << strfmt("%.6f", wall_total)
       << ", \"ok\": " << (all_ok ? "true" : "false") << "}\n";
    os << "}\n";
}

} // namespace mtrap::perf

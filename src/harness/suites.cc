#include "harness/suites.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/manifest.hh"
#include "harness/sweep.hh"
#include "sim/arrival.hh"
#include "sim/mem_system.hh"
#include "workload/attacks.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap::harness
{

namespace
{

/** The five protected schemes compared in figures 3 and 4. */
const std::vector<Scheme> kFigureSchemes = {
    Scheme::MuonTrap,         Scheme::InvisiSpecSpectre,
    Scheme::InvisiSpecFuture, Scheme::SttSpectre,
    Scheme::SttFuture,
};

const JobResult *
find(const std::vector<JobResult> &rs, const std::string &row,
     const std::string &col, const std::string &kind)
{
    for (const JobResult &r : rs)
        if (r.row == row && r.col == col && r.kind == kind)
            return &r;
    return nullptr;
}

double
normalized(const std::vector<JobResult> &rs, const std::string &row,
           const std::string &col)
{
    const JobResult *base =
        find(rs, row, schemeName(Scheme::Baseline), "baseline");
    const JobResult *r = find(rs, row, col, "run");
    if (!base || !r || !base->ok || !r->ok || base->run.cycles == 0)
        fatal("suite: missing or failed result for %s/%s (render needs "
              "the full, unsharded result set)",
              row.c_str(), col.c_str());
    return static_cast<double>(r->run.cycles)
           / static_cast<double>(base->run.cycles);
}

/** Shared renderer for the normalised-execution-time figures. */
std::function<ReportTable(const std::vector<JobResult> &)>
normalizedRenderer(std::string title, std::vector<std::string> rows,
                   std::vector<std::string> cols)
{
    return [title = std::move(title), rows = std::move(rows),
            cols = std::move(cols)](const std::vector<JobResult> &rs) {
        ReportTable t(title);
        std::vector<std::string> hdr = {"benchmark"};
        hdr.insert(hdr.end(), cols.begin(), cols.end());
        t.header(hdr);
        for (const std::string &row : rows) {
            std::vector<double> values;
            values.reserve(cols.size());
            for (const std::string &col : cols)
                values.push_back(normalized(rs, row, col));
            t.rowNumeric(row, values);
        }
        t.geomeanRow();
        return t;
    };
}

Suite
normalizedSuite(const std::string &name, std::string title,
                const std::vector<std::string> &workload_names,
                const RunOptions &opt, std::uint64_t seed,
                const std::function<void(SweepBuilder &)> &columns)
{
    SweepBuilder b(name);
    b.options(opt).seed(seed).workloads(workload_names).withBaseline();
    columns(b);

    Suite s;
    s.name = name;
    s.jobs = b.build();
    s.render = normalizedRenderer(std::move(title), b.rowLabels(),
                                  b.columnLabels());
    return s;
}

/**
 * The cumulative protection steps of figures 8 and 9: insecure L0 ->
 * +fcache -> +coherency -> +ifcache -> +prefetch, then either stacked
 * clear-on-misspec (figure 8) or the clear-on-misspec / parallel-L1D
 * alternatives side by side (figure 9, `with_parallel`).
 */
std::vector<std::pair<std::string, MuonTrapConfig>>
cumulativeSteps(bool with_parallel)
{
    std::vector<std::pair<std::string, MuonTrapConfig>> steps;

    MuonTrapConfig c = MuonTrapConfig::insecureL0();
    steps.emplace_back("insecure-L0", c);

    c.protectData = true;
    c.tlbFilter = true;
    c.dataParams.name = "fcache_d";
    steps.emplace_back("+fcache", c);

    c.protectCoherence = true;
    steps.emplace_back("+coherency", c);

    c.instFilter = true;
    c.instParams.name = "fcache_i";
    steps.emplace_back("+ifcache", c);

    c.commitPrefetch = true;
    steps.emplace_back("+prefetch", c);

    if (!with_parallel) {
        c.clearOnMisspec = true;
        steps.emplace_back("+clear-misspec", c);
    } else {
        MuonTrapConfig clear = c;
        clear.clearOnMisspec = true;
        steps.emplace_back("+clear-misspec", clear);

        MuonTrapConfig par = c;
        par.parallelL0L1 = true;
        steps.emplace_back("parallel-L1D", par);
    }
    return steps;
}

void
addStepColumns(SweepBuilder &b, bool with_parallel)
{
    for (const auto &[step_name, mt] : cumulativeSteps(with_parallel)) {
        SystemConfig cfg = SystemConfig::forScheme(Scheme::Baseline, 1);
        cfg.mem.mt = mt;
        b.config(step_name, step_name, cfg);
    }
}

Suite
fig7Suite(const RunOptions &opt, std::uint64_t seed)
{
    SweepBuilder b("fig7");
    b.options(opt)
        .seed(seed)
        .workloads(specBenchmarkNames())
        .scheme(Scheme::MuonTrap)
        .collect([](System &sys, JobResult &r) {
            CoherenceBus &bus = sys.mem().bus();
            r.metrics["invalidate_rate"] =
                bus.writeFilterInvalidateRate.value();
            r.metrics["store_upgrades"] =
                static_cast<double>(bus.storeUpgrades.value());
            r.metrics["broadcasts"] = static_cast<double>(
                bus.storeUpgradeBroadcasts.value());
        });

    Suite s;
    s.name = "fig7";
    s.jobs = b.build();
    s.render = [rows = b.rowLabels()](const std::vector<JobResult> &rs) {
        ReportTable t("Figure 7: write filter-cache-invalidate rate "
                      "(SPEC, MuonTrap)");
        t.header({"benchmark", "invalidate_rate", "store_upgrades",
                  "broadcasts"});
        double sum = 0;
        for (const std::string &row : rows) {
            const JobResult *r =
                find(rs, row, schemeName(Scheme::MuonTrap), "run");
            if (!r || !r->ok)
                fatal("fig7: missing result for %s", row.c_str());
            const double rate = r->metrics.at("invalidate_rate");
            sum += rate;
            t.row({row, strfmt("%.3f", rate),
                   strfmt("%llu",
                          static_cast<unsigned long long>(
                              r->metrics.at("store_upgrades"))),
                   strfmt("%llu",
                          static_cast<unsigned long long>(
                              r->metrics.at("broadcasts")))});
        }
        t.row({"mean", strfmt("%.3f", sum / rows.size()), "-", "-"});
        return t;
    };
    return s;
}

// ------------------------------------------------------- sched suite

/**
 * The paper's §6 scenario family: multiprogrammed 4-core runs under the
 * gang scheduler, where every context switch pays the scheme's hygiene
 * cost (MuonTrap filter flush / InvisiSpec squash / STT taint clear).
 * Normalisation is against the *scheduled* baseline, so the table
 * isolates each scheme's time-sharing cost, not the scheduler's.
 */
Suite
schedSuite(const RunOptions &opt, std::uint64_t seed)
{
    SchedParams sp;
    sp.quantum = 20'000;

    SweepBuilder b("sched");
    b.options(opt)
        .seed(seed)
        .schedule(sp, /*cores=*/4)
        // Eight single-threaded SPEC jobs time-sharing four cores: the
        // classic multiprogrammed mix (two jobs per core, constant
        // switching).
        .mixRow("spec-mix4", {"mcf", "gcc", "hmmer", "libquantum",
                              "gamess", "astar", "lbm", "milc"})
        // Two four-thread PARSEC gangs alternating on the same four
        // cores: every quantum boundary switches the whole machine.
        .mixRow("parsec-timeshare", {"canneal", "streamcluster"})
        .withBaseline()
        .schemes(kFigureSchemes)
        .collect([](System &sys, JobResult &r) {
            const Scheduler *sched = sys.scheduler();
            if (!sched)
                return;
            r.metrics["context_switches"] =
                static_cast<double>(sched->switches());
            r.metrics["migrations"] =
                static_cast<double>(sched->migrations());
            r.metrics["idle_slots"] =
                static_cast<double>(sched->idleSlots());
        });

    Suite s;
    s.name = "sched";
    s.jobs = b.build();
    s.render = normalizedRenderer(
        "Scheduled multiprogramming (4 cores, gang scheduler): "
        "normalised execution time",
        b.rowLabels(), b.columnLabels());
    return s;
}

// ------------------------------------------------------- security matrix

Suite
securitySuite(const RunOptions &opt, std::uint64_t seed)
{
    // The attacks are fixed choreographies (prime, run gadget, probe)
    // built inside attacks.cc: run lengths and seeds don't apply to
    // them. Say so instead of silently ignoring the flags.
    if (seed != 0)
        warn("security suite ignores --seed (attacks use fixed "
             "choreography)");
    if (opt.warmupInstructions != kDefaultWarmupInstructions
        || opt.measureInstructions != kDefaultMeasureInstructions)
        warn("security suite ignores --instructions/--warmup (attacks "
             "use fixed choreography)");

    const std::vector<Scheme> schemes = securityMatrixSchemes();

    Suite s;
    s.name = "security";
    s.emitCsv = false;
    s.progressByCol = true;

    for (Scheme scheme : schemes) {
        // One job per kAttackTable row, so the pool can fan them out.
        for (const AttackEntry &a : kAttackTable) {
            JobSpec j;
            j.index = s.jobs.size();
            j.suite = s.name;
            j.row = a.name;
            j.col = schemeName(scheme);
            j.custom = [run = a.run, scheme](const JobSpec &) {
                const AttackOutcome out = run(scheme, nullptr);
                JobResult r;
                r.note = out.leaked ? "LEAK" : "blocked";
                r.metrics["leaked"] = out.leaked ? 1.0 : 0.0;
                r.metrics["probe0_time"] =
                    static_cast<double>(out.probe0Time);
                r.metrics["probe1_time"] =
                    static_cast<double>(out.probe1Time);
                return r;
            };
            s.jobs.push_back(std::move(j));
        }
    }

    auto cell = [](const std::vector<JobResult> &rs,
                   const std::string &row,
                   Scheme scheme) -> const JobResult & {
        const JobResult *r = find(rs, row, schemeName(scheme), "run");
        if (!r || !r->ok)
            fatal("security: missing result for %s/%s", row.c_str(),
                  schemeName(scheme));
        return *r;
    };

    s.render = [schemes, cell](const std::vector<JobResult> &rs) {
        ReportTable t("Security matrix: LEAK = secret recovered via "
                      "timing");
        std::vector<std::string> hdr = {"attack"};
        for (Scheme scheme : schemes)
            hdr.push_back(schemeName(scheme));
        t.header(hdr);
        for (const AttackEntry &a : kAttackTable) {
            std::vector<std::string> row = {a.name};
            for (Scheme scheme : schemes)
                row.push_back(cell(rs, a.name, scheme).note);
            t.row(row);
        }
        return t;
    };

    // Every cell of the matrix has a declared expected outcome
    // (expectedLeak): the baseline leaks all attacks, each defence
    // blocks exactly its documented set, and the committed bus channel
    // leaks everywhere.
    s.verdict = [schemes, cell](const std::vector<JobResult> &rs,
                                std::ostream &os) {
        unsigned bad = 0;
        for (const AttackEntry &a : kAttackTable) {
            for (Scheme scheme : schemes) {
                const bool leaked =
                    cell(rs, a.name, scheme).note == "LEAK";
                if (leaked != expectedLeak(a.name, scheme)) {
                    ++bad;
                    os << "FAIL: " << a.name << " under "
                       << schemeName(scheme) << " "
                       << (leaked ? "leaked" : "was blocked")
                       << " but the declared outcome is "
                       << (expectedLeak(a.name, scheme) ? "LEAK"
                                                        : "blocked")
                       << "\n";
                }
            }
        }
        os << "\n"
           << (bad == 0 ? "PASS: every matrix cell matches its declared "
                          "expected outcome"
                        : "FAIL: unexpected leak matrix")
           << "\n";
        return bad == 0 ? 0 : 1;
    };
    return s;
}

// ------------------------------------------------------- server suite

/** The schemes compared under open-system load (a smaller set than the
 *  figures: one representative per defence family keeps the load sweep
 *  affordable). */
const std::vector<Scheme> kServerSchemes = {
    Scheme::Baseline,
    Scheme::MuonTrap,
    Scheme::InvisiSpecSpectre,
    Scheme::SttSpectre,
};

/** One load level of the server sweep. */
struct ServerLoadLevel
{
    const char *name;
    ArrivalPattern pattern;
    /** Mean inter-arrival gap as a multiple (percent) of
     *  opt.measureInstructions, so the suite scales with
     *  --instructions the way every other suite does. */
    unsigned interarrivalPct;
};

const std::vector<ServerLoadLevel> &
serverLoadLevels()
{
    // lo is comfortably under capacity (4 cores), hi oversubscribes it,
    // and burst-hi offers the hi rate in bursts — same long-run load,
    // much fatter latency tail.
    static const std::vector<ServerLoadLevel> levels = {
        {"poisson-lo", ArrivalPattern::Poisson, 200},
        {"poisson-hi", ArrivalPattern::Poisson, 50},
        {"burst-hi", ArrivalPattern::Burst, 50},
    };
    return levels;
}

/** Arrival shape of one load level. Scaled off the per-run instruction
 *  budget so `--instructions` moves the whole suite together. Seeded
 *  per *row*, never per column: every scheme in a row faces the
 *  byte-identical offered load, so columns differ only by defence. */
ArrivalParams
serverArrivals(const ServerLoadLevel &level, const RunOptions &opt,
               std::uint64_t seed, std::size_t row_index)
{
    ArrivalParams ap;
    ap.seed = mixSeeds(0xa2217ull + row_index, seed);
    ap.pattern = level.pattern;
    ap.jobs = 12;
    ap.meanInterarrival =
        std::max<Cycle>(1, opt.measureInstructions
                               * level.interarrivalPct / 100);
    ap.serviceMinCommits = std::max<std::uint64_t>(
        1, opt.measureInstructions / 2);
    ap.serviceMaxCommits = std::max<std::uint64_t>(
        ap.serviceMinCommits, opt.measureInstructions * 2);
    ap.deadlineFactor = 6;
    ap.maxWeight = 2;
    return ap;
}

/**
 * The open-system "server farm" sweep: a load ladder (rows) against a
 * defence-scheme set (columns), each cell one server-source run()
 * on a 4-core machine. The table reports p95 sojourn time normalised
 * to the scheduled Baseline of the same row — the defence's QoS
 * overhead under that load — and the CSV carries the full percentile /
 * occupancy / deadline metric set.
 */
Suite
serverSuite(const RunOptions &opt, std::uint64_t seed)
{
    Suite s;
    s.name = "server";

    for (const ServerLoadLevel &level : serverLoadLevels()) {
        const std::size_t row_index = &level - serverLoadLevels().data();
        for (Scheme scheme : kServerSchemes) {
            JobSpec j;
            j.index = s.jobs.size();
            j.suite = s.name;
            j.row = level.name;
            j.col = schemeName(scheme);
            const ArrivalParams ap =
                serverArrivals(level, opt, seed, row_index);
            j.custom = [ap, ro = opt, scheme](const JobSpec &) {
                SchedParams sp;
                sp.quantum = 20'000;
                sp.affinity = true;
                const RunOutput out =
                    run({SystemConfig::forScheme(scheme, 4),
                         ServerSource{ap, sp}, ro, schemeName(scheme)});
                const ServerReport &rep = out.report;

                JobResult r;
                r.run = out.result;
                r.instructions = rep.committed;
                r.metrics["admitted"] =
                    static_cast<double>(rep.admitted);
                r.metrics["completed"] =
                    static_cast<double>(rep.completed);
                r.metrics["sojourn_p50"] =
                    static_cast<double>(rep.sojournP50);
                r.metrics["sojourn_p95"] =
                    static_cast<double>(rep.sojournP95);
                r.metrics["sojourn_p99"] =
                    static_cast<double>(rep.sojournP99);
                r.metrics["wait_p50"] =
                    static_cast<double>(rep.waitP50);
                r.metrics["wait_p95"] =
                    static_cast<double>(rep.waitP95);
                r.metrics["wait_p99"] =
                    static_cast<double>(rep.waitP99);
                r.metrics["deadline_miss_rate"] = rep.deadlineTotal
                    ? static_cast<double>(rep.deadlineMisses)
                          / static_cast<double>(rep.deadlineTotal)
                    : 0.0;
                r.metrics["occupancy"] = rep.occupancy;
                r.metrics["throughput_per_mcycle"] =
                    rep.throughputPerMcycle;
                return r;
            };
            s.jobs.push_back(std::move(j));
        }
    }

    s.render = [](const std::vector<JobResult> &rs) {
        ReportTable t("Open-system server load sweep (4 cores): p95 "
                      "sojourn time vs scheduled Baseline");
        std::vector<std::string> hdr = {"load"};
        for (Scheme scheme : kServerSchemes)
            hdr.push_back(schemeName(scheme));
        t.header(hdr);
        for (const ServerLoadLevel &level : serverLoadLevels()) {
            const JobResult *base =
                find(rs, level.name, schemeName(Scheme::Baseline),
                     "run");
            if (!base || !base->ok)
                fatal("server: missing baseline result for %s",
                      level.name);
            const double base_p95 = base->metrics.at("sojourn_p95");
            std::vector<double> values;
            for (Scheme scheme : kServerSchemes) {
                const JobResult *r =
                    find(rs, level.name, schemeName(scheme), "run");
                if (!r || !r->ok)
                    fatal("server: missing result for %s/%s",
                          level.name, schemeName(scheme));
                values.push_back(base_p95 > 0.0
                                     ? r->metrics.at("sojourn_p95")
                                           / base_p95
                                     : 1.0);
            }
            t.rowNumeric(level.name, values);
        }
        t.geomeanRow();
        return t;
    };
    return s;
}

} // namespace

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "fig3", "fig4", "fig5", "fig6",
        "fig7", "fig8", "fig9", "sched", "security", "server",
    };
    return names;
}

Suite
buildSuite(const std::string &name, const RunOptions &opt,
           std::uint64_t seed)
{
    if (name == "fig3")
        return normalizedSuite(
            name, "Figure 3: SPEC CPU2006 normalised execution time",
            specBenchmarkNames(), opt, seed,
            [](SweepBuilder &b) { b.schemes(kFigureSchemes); });
    if (name == "fig4")
        return normalizedSuite(
            name,
            "Figure 4: Parsec normalised execution time (4 threads)",
            parsecBenchmarkNames(), opt, seed,
            [](SweepBuilder &b) { b.schemes(kFigureSchemes); });
    if (name == "fig5")
        return normalizedSuite(
            name,
            "Figure 5: filter-cache size sweep (fully assoc., Parsec)",
            parsecBenchmarkNames(), opt, seed, [](SweepBuilder &b) {
                b.filterSizes({64, 128, 256, 512, 1024, 2048, 4096});
            });
    if (name == "fig6")
        return normalizedSuite(
            name,
            "Figure 6: filter-cache associativity sweep (2048 B, Parsec)",
            parsecBenchmarkNames(), opt, seed, [](SweepBuilder &b) {
                b.filterAssocs({1, 2, 4, 8, 16, 32}, 2048);
            });
    if (name == "fig7")
        return fig7Suite(opt, seed);
    if (name == "fig8")
        return normalizedSuite(
            name, "Figure 8: cumulative protection cost on Parsec",
            parsecBenchmarkNames(), opt, seed,
            [](SweepBuilder &b) { addStepColumns(b, false); });
    if (name == "fig9")
        return normalizedSuite(
            name, "Figure 9: cumulative protection cost on SPEC CPU2006",
            specBenchmarkNames(), opt, seed,
            [](SweepBuilder &b) { addStepColumns(b, true); });
    if (name == "sched")
        return schedSuite(opt, seed);
    if (name == "security")
        return securitySuite(opt, seed);
    if (name == "server")
        return serverSuite(opt, seed);
    fatal("unknown suite '%s' (try one of fig3..fig9, sched, security, "
          "server, all)",
          name.c_str());
}

int
runSuite(const Suite &suite, ExperimentPool &pool, bool render_table,
         ResultStore *store, const SuiteRunOptions &run_opt)
{
    Suite local_suite;
    const Suite *to_run = &suite;
    std::vector<JobResult> prior;
    if (!run_opt.traceDir.empty() || !run_opt.warmSnapshotDir.empty()
        || !run_opt.resumeManifest.empty()) {
        local_suite = suite;
        for (JobSpec &j : local_suite.jobs) {
            if (!run_opt.traceDir.empty())
                j.tracePath = run_opt.traceDir + "/" + local_suite.name
                              + "_" + std::to_string(j.index)
                              + ".trace.json";
            if (!run_opt.warmSnapshotDir.empty())
                j.opt.warmSnapshotDir = run_opt.warmSnapshotDir;
        }
        if (!run_opt.resumeManifest.empty()) {
            prior = loadResumeManifest(run_opt.resumeManifest,
                                       suite.name);
            std::set<std::size_t> recorded;
            for (const JobResult &r : prior)
                recorded.insert(r.index);
            auto &jobs = local_suite.jobs;
            jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                      [&](const JobSpec &j) {
                                          return recorded.count(j.index)
                                                 != 0;
                                      }),
                       jobs.end());
            if (!prior.empty())
                std::fprintf(stderr,
                             "%s: resume — %zu job(s) already in %s, "
                             "%zu to run\n",
                             suite.name.c_str(), prior.size(),
                             run_opt.resumeManifest.c_str(),
                             jobs.size());
        }
        to_run = &local_suite;
    }

    // The manifest is append-only and flushed per record; the pool's
    // completion callback is serialised, so no locking is needed.
    std::ofstream manifest;
    if (!run_opt.resumeManifest.empty()) {
        manifest.open(run_opt.resumeManifest,
                      std::ios::out | std::ios::app);
        if (!manifest)
            fatal("cannot open resume manifest %s for append",
                  run_opt.resumeManifest.c_str());
    }

    // Legacy progress lines fire when a whole row (workload) or column
    // (scheme) finishes; completion order varies with the pool, the
    // line set does not. Per-job lines (mtrap_batch) add wall time and
    // simulation throughput as each job lands, with an ETA from the
    // mean job time so far.
    std::map<std::string, unsigned> remaining;
    for (const JobSpec &j : to_run->jobs)
        ++remaining[suite.progressByCol ? j.col : j.row];

    const std::size_t total = to_run->jobs.size();
    std::size_t done = 0;
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<JobResult> results = pool.run(
        to_run->jobs, [&](const JobResult &r) {
            ++done;
            if (manifest.is_open() && r.ok) {
                manifest << resumeManifestLine(r) << '\n';
                manifest.flush();
                if (!manifest)
                    fatal("write to resume manifest %s failed",
                          run_opt.resumeManifest.c_str());
            }
            if (run_opt.perJobProgress) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                const double eta = done
                    ? elapsed / static_cast<double>(done)
                          * static_cast<double>(total - done)
                    : 0.0;
                const double kips = r.wallSeconds > 0.0
                    ? static_cast<double>(r.instructions)
                          / r.wallSeconds / 1e3
                    : 0.0;
                std::fprintf(stderr,
                             "[%zu/%zu] %s: %s/%s %.1fs %.0f kinst/s "
                             "(ETA %.0fs)\n",
                             done, total, suite.name.c_str(),
                             r.row.c_str(), r.col.c_str(),
                             r.wallSeconds, kips, eta);
            }
            const std::string &key =
                suite.progressByCol ? r.col : r.row;
            if (--remaining[key] == 0)
                std::fprintf(stderr, "%s: %s done\n",
                             suite.name.c_str(), key.c_str());
        });

    // Recorded results from previous attempts rejoin the live ones;
    // renderers and the store match on (row, col, kind) / sort by
    // index, so the merged set is indistinguishable from one run.
    for (JobResult &r : prior)
        results.push_back(std::move(r));

    int rc = 0;
    for (const JobResult &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "%s: job %llu (%s/%s) failed: %s\n",
                         suite.name.c_str(),
                         static_cast<unsigned long long>(r.index),
                         r.row.c_str(), r.col.c_str(), r.error.c_str());
            rc = 1;
        }
    }

    if (render_table && rc == 0) {
        const ReportTable t = suite.render(results);
        t.print(std::cout);
        if (suite.emitCsv) {
            std::printf("--- csv ---\n");
            t.printCsv(std::cout);
            std::printf("-----------\n");
        }
        if (suite.verdict)
            rc = suite.verdict(results, std::cout);
    }

    if (store)
        store->addAll(std::move(results));
    return rc;
}

} // namespace mtrap::harness

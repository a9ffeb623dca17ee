/**
 * @file
 * Batch experiment front end: run any of the paper's figure suites (or
 * the security matrix) through the parallel experiment harness, with
 * optional sharding across machines and CSV/JSON artifact emission.
 *
 * Usage:
 *   mtrap_batch --list
 *   mtrap_batch --suite fig3 [options]
 *   mtrap_batch --suite all --jobs 8 --out results.json
 *   mtrap_batch --suite fig9 --shard 1/4 --out shard1.json
 *
 * Options:
 *   --suite NAME         fig3|fig4|fig5|fig6|fig7|fig8|fig9|sched|
 *                        security|server|all (repeatable; "all"
 *                        expands to every suite). "server" is the
 *                        open-system load sweep: arrival-rate ladder x
 *                        defence schemes, reporting sojourn-latency
 *                        percentiles (see src/sim/arrival.hh)
 *   --jobs N             worker threads (default: hardware concurrency)
 *   --shard i/m          run only jobs k with k%m == i (0-based). Tables
 *                        need the full result set, so sharded runs emit
 *                        artifacts only.
 *   --out FILE           write all results as JSON ("-" = stdout)
 *   --csv FILE           write all results as CSV ("-" = stdout)
 *   --seed S             nonzero: re-randomise the synthetic program
 *                        generation deterministically (each workload's
 *                        profile seed is mixed with S; no per-job seeds,
 *                        so jobs running the same workload run the same
 *                        program); 0 (default) reproduces the unseeded
 *                        results exactly
 *   --instructions N     measured instructions per core (default 100000)
 *   --warmup N           warmup instructions per core (default 30000)
 *   --no-tables          skip table rendering even when unsharded
 *   --trace-dir DIR      run every job with event tracing attached and
 *                        write DIR/<suite>_<index>.trace.json (Chrome
 *                        trace-event JSON, Perfetto-loadable) per job
 *   --warm-snapshot DIR  cache warm machine state in DIR keyed by the
 *                        (config, context) fingerprint pair: sweep
 *                        points sharing warm state (e.g. fig5 and fig6
 *                        baselines) warm up once and restore
 *                        thereafter, bit-identically
 *   --resume FILE        append each completed job to FILE and, on
 *                        restart, skip the jobs already recorded — a
 *                        killed shard finishes where it left off with
 *                        byte-identical artifacts
 *
 * Per-job progress telemetry goes to stderr as each job completes:
 * job name, wall seconds, simulated kinst/s, done/total and an ETA.
 *
 * Determinism: results (and therefore --out/--csv artifacts) are
 * byte-identical for any --jobs value; so are --trace-dir files,
 * warm-forked runs and resumed runs.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/checked_io.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "harness/suites.hh"

namespace
{

using namespace mtrap;
using namespace mtrap::harness;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mtrap_batch --list | --suite NAME [--suite "
                 "NAME...]\n"
                 "                   [--jobs N] [--shard i/m] [--out "
                 "FILE] [--csv FILE]\n"
                 "                   [--seed S] [--instructions N] "
                 "[--warmup N] [--no-tables]\n"
                 "                   [--trace-dir DIR] [--warm-snapshot "
                 "DIR] [--resume FILE]\n");
    std::exit(1);
}

/** Strict decimal parse; fatal (not abort) on junk like --jobs abc. */
std::uint64_t
parseNumber(const std::string &s, const char *flag)
{
    std::uint64_t v;
    if (!parseU64(s, v))
        fatal("%s wants a number, got '%s'", flag, s.c_str());
    return v;
}

void
parseShard(const std::string &spec, unsigned &index, unsigned &count)
{
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0
        || slash + 1 >= spec.size())
        fatal("--shard wants i/m (e.g. 0/4), got '%s'", spec.c_str());
    index = static_cast<unsigned>(
        parseNumber(spec.substr(0, slash), "--shard"));
    count = static_cast<unsigned>(
        parseNumber(spec.substr(slash + 1), "--shard"));
    if (count == 0 || index >= count)
        fatal("--shard %s: need 0 <= i < m", spec.c_str());
}

void
writeArtifact(const ResultStore &store, const std::string &path, bool csv)
{
    if (path == "-") {
        csv ? store.writeCsv(std::cout) : store.writeJson(std::cout);
        return;
    }
    // Checked end to end: a full disk or yanked mount kills the run
    // loudly instead of archiving a silently truncated result set.
    CheckedOfstream os(path, "result artifact");
    csv ? store.writeCsv(os.stream()) : store.writeJson(os.stream());
    os.finish();
    // The tables go to stdout, which a terminal or pipe still buffers:
    // flush them so this stderr line cannot land inside a table.
    std::cout.flush();
    std::fflush(stdout);
    std::fprintf(stderr, "mtrap_batch: wrote %s (%llu results)\n",
                 path.c_str(),
                 static_cast<unsigned long long>(store.size()));
}

int
runTool(int argc, char **argv)
{
    std::vector<std::string> suites;
    unsigned jobs = 0;
    unsigned shard_index = 0, shard_count = 1;
    std::string out_json, out_csv;
    std::uint64_t seed = 0;
    RunOptions opt; // defaults: kDefault{Warmup,Measure}Instructions
    bool tables = true;
    std::string trace_dir;
    std::string warm_snapshot_dir;
    std::string resume_manifest;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list") {
            std::printf("Suites:\n");
            for (const std::string &n : suiteNames())
                std::printf("  %s\n", n.c_str());
            std::printf("  all\n");
            return 0;
        } else if (arg == "--suite") {
            suites.push_back(next());
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(parseNumber(next(), "--jobs"));
        } else if (arg == "--shard") {
            parseShard(next(), shard_index, shard_count);
        } else if (arg == "--out") {
            out_json = next();
        } else if (arg == "--csv") {
            out_csv = next();
        } else if (arg == "--seed") {
            seed = parseNumber(next(), "--seed");
        } else if (arg == "--instructions") {
            opt.measureInstructions =
                parseNumber(next(), "--instructions");
        } else if (arg == "--warmup") {
            opt.warmupInstructions = parseNumber(next(), "--warmup");
        } else if (arg == "--no-tables") {
            tables = false;
        } else if (arg == "--trace-dir") {
            trace_dir = next();
        } else if (arg == "--warm-snapshot") {
            warm_snapshot_dir = next();
        } else if (arg == "--resume") {
            resume_manifest = next();
        } else {
            usage();
        }
    }
    if (suites.empty())
        usage();

    // Expand "all" and validate every name up front, so a typo in a
    // later --suite cannot discard hours of completed results.
    std::vector<std::string> expanded;
    for (const std::string &s : suites) {
        if (s == "all") {
            expanded.insert(expanded.end(), suiteNames().begin(),
                            suiteNames().end());
            continue;
        }
        bool known = false;
        for (const std::string &n : suiteNames())
            known |= (n == s);
        if (!known)
            fatal("unknown suite '%s' (try --list)", s.c_str());
        expanded.push_back(s);
    }

    const bool sharded = shard_count > 1;
    if (sharded && tables) {
        std::fprintf(stderr,
                     "mtrap_batch: sharded run, skipping tables "
                     "(artifacts only)\n");
        tables = false;
    }

    ExperimentPool pool(jobs);
    std::fprintf(stderr, "mtrap_batch: %u worker thread(s), shard %u/%u\n",
                 pool.threads(), shard_index, shard_count);

    SuiteRunOptions run_opt;
    run_opt.perJobProgress = true;
    run_opt.traceDir = trace_dir;
    run_opt.warmSnapshotDir = warm_snapshot_dir;
    run_opt.resumeManifest = resume_manifest;

    ResultStore store;
    int rc = 0;
    for (const std::string &name : expanded) {
        Suite suite = buildSuite(name, opt, seed);
        suite.jobs = shardJobs(std::move(suite.jobs), shard_index,
                               shard_count);
        const int suite_rc = runSuite(suite, pool, tables, &store,
                                      run_opt);
        if (suite_rc != 0)
            rc = suite_rc;
    }

    if (!out_json.empty())
        writeArtifact(store, out_json, /*csv=*/false);
    if (!out_csv.empty())
        writeArtifact(store, out_csv, /*csv=*/true);
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runTool(argc, argv);
    } catch (const std::exception &e) {
        mtrap::fatal("%s", e.what());
    }
}

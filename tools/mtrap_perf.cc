/**
 * @file
 * Simulator-throughput benchmark front end.
 *
 * Runs the fixed perf suite (1-core SPEC, 4-core PARSEC under
 * MuonTrap/InvisiSpec/STT, a scheduler context-switch workload, the
 * Spectre attack vignette), times every scenario, and writes BENCH.json
 * (schema "mtrap-bench-v1", see src/perf/perf_suite.hh).
 *
 * Usage:
 *   mtrap_perf [--out BENCH.json] [--quick] [--repeat N]
 *              [--instructions N] [--warmup N] [--scenario NAME]...
 *              [--compare OLD.json] [--threshold PCT]
 *   mtrap_perf --compare-only OLD.json NEW.json [--threshold PCT]
 *   mtrap_perf --list
 *
 * Options:
 *   --out FILE         write BENCH.json here ("-" = stdout; default
 *                      BENCH.json in the current directory)
 *   --quick            CI smoke preset: ~10x shorter runs, 1 repeat
 *   --repeat N         wall-time repeats per scenario (best-of-N)
 *   --instructions N   measured instructions per core per scenario
 *   --warmup N         warmup instructions per core
 *   --scenario NAME    run only the named scenario(s) (repeatable)
 *   --compare FILE     after the run, compare the fresh results against
 *                      FILE (a previous BENCH.json); exit nonzero when
 *                      the geomean throughput over common scenarios
 *                      regresses past the threshold, any scenario
 *                      errors, or (same mode, run lengths and work
 *                      version) a common scenario's instructions or
 *                      sim_cycles differ — the CI regression gate
 *   --compare-only A B compare BENCH.json B (candidate) against A
 *                      (baseline) without running anything
 *   --threshold PCT    tolerated geomean regression (default 5)
 *   --list             print scenario names and exit
 *
 * Exit status is nonzero if any scenario fails or a comparison finds a
 * regression.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checked_io.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "perf/bench_compare.hh"
#include "perf/perf_suite.hh"

namespace
{

using namespace mtrap;
using namespace mtrap::perf;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mtrap_perf [--out FILE] [--quick] [--repeat N]\n"
                 "                  [--instructions N] [--warmup N]\n"
                 "                  [--scenario NAME]...\n"
                 "                  [--compare OLD.json] "
                 "[--threshold PCT]\n"
                 "       mtrap_perf --compare-only OLD.json NEW.json\n"
                 "       mtrap_perf --list\n");
    std::exit(1);
}

std::uint64_t
parseNumber(const std::string &s, const char *flag)
{
    std::uint64_t v;
    if (!parseU64(s, v))
        fatal("%s wants a number, got '%s'", flag, s.c_str());
    return v;
}

/** Strict non-negative decimal parse (thresholds like "2.5"). */
double
parsePercent(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || !end || *end != '\0' || v < 0.0)
        fatal("%s wants a non-negative percentage, got '%s'", flag,
              s.c_str());
    return v;
}

BenchFile
loadBenchFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    BenchFile f;
    std::string err;
    if (!parseBenchJson(buf.str(), f, err))
        fatal("%s: %s", path.c_str(), err.c_str());
    return f;
}

/** Run the gate; prints the report and returns the process exit code. */
int
runComparison(const BenchFile &baseline, const BenchFile &candidate,
              double threshold_pct)
{
    CompareOptions copt;
    copt.maxRegressPct = threshold_pct;
    const CompareReport rep = compareBench(baseline, candidate, copt);
    std::fputs(rep.text.c_str(), stderr);
    return rep.pass ? 0 : 1;
}

int
runTool(int argc, char **argv)
{
    // --quick selects the preset the other knobs start from, wherever
    // it appears on the line; explicit knobs then always win. So
    // "--repeat 3 --quick" == "--quick --repeat 3": the quick scales
    // with three repeats, and the emitted mode label matches the run.
    PerfOptions opt;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--quick")
            opt = PerfOptions::quickPreset();

    std::string out_path = "BENCH.json";
    std::vector<std::string> only;
    std::string compare_path;
    std::string compare_only_base, compare_only_cand;
    double threshold_pct = 5.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list") {
            for (const PerfScenario &s : defaultScenarios())
                std::printf("%-40s %s\n", s.name.c_str(),
                            s.description.c_str());
            return 0;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--quick") {
            // handled in the pre-pass
        } else if (arg == "--repeat") {
            opt.repeats = static_cast<unsigned>(
                parseNumber(next(), "--repeat"));
        } else if (arg == "--instructions") {
            opt.measureInstructions =
                parseNumber(next(), "--instructions");
        } else if (arg == "--warmup") {
            opt.warmupInstructions = parseNumber(next(), "--warmup");
        } else if (arg == "--scenario") {
            only.push_back(next());
        } else if (arg == "--compare") {
            compare_path = next();
        } else if (arg == "--compare-only") {
            compare_only_base = next();
            compare_only_cand = next();
        } else if (arg == "--threshold") {
            threshold_pct = parsePercent(next(), "--threshold");
        } else {
            usage();
        }
    }
    if (opt.repeats == 0)
        fatal("--repeat wants at least 1");

    // Pure comparison mode: no simulation at all.
    if (!compare_only_base.empty())
        return runComparison(loadBenchFile(compare_only_base),
                             loadBenchFile(compare_only_cand),
                             threshold_pct);

    std::vector<PerfScenario> scenarios = defaultScenarios();
    if (!only.empty()) {
        std::vector<PerfScenario> filtered;
        for (const std::string &name : only) {
            bool found = false;
            for (PerfScenario &s : scenarios) {
                if (s.name == name) {
                    filtered.push_back(std::move(s));
                    found = true;
                    break;
                }
            }
            if (!found)
                fatal("unknown scenario '%s' (try --list)", name.c_str());
        }
        scenarios = std::move(filtered);
    }

    std::fprintf(stderr, "mtrap_perf: %zu scenario(s), %s mode, "
                         "%llu measured + %llu warmup instructions, "
                         "best of %u\n",
                 scenarios.size(), opt.quick ? "quick" : "full",
                 static_cast<unsigned long long>(opt.measureInstructions),
                 static_cast<unsigned long long>(opt.warmupInstructions),
                 opt.repeats);

    const std::vector<ScenarioResult> results =
        runScenarios(scenarios, opt, &std::cerr);

    if (out_path == "-") {
        writeBenchJson(results, opt, std::cout);
    } else {
        // Checked: a truncated BENCH.json would poison the CI
        // regression gate's baseline, so fail loudly instead.
        CheckedOfstream os(out_path, "bench results");
        writeBenchJson(results, opt, os.stream());
        os.finish();
        std::fprintf(stderr, "mtrap_perf: wrote %s\n", out_path.c_str());
    }

    bool ok = true;
    for (const ScenarioResult &r : results)
        ok = ok && r.ok;
    std::fprintf(stderr, "mtrap_perf: aggregate score %.1f kinst/s (%s)\n",
                 aggregateScoreKips(results), ok ? "ok" : "FAILED");

    if (!compare_path.empty()) {
        const int rc = runComparison(loadBenchFile(compare_path),
                                     benchFileFromResults(results, opt),
                                     threshold_pct);
        if (rc != 0)
            return rc;
    }
    return ok ? 0 : 1;
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

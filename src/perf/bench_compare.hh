/**
 * @file
 * BENCH.json regression comparison (the CI gate behind
 * `mtrap_perf --compare`).
 *
 * Parses two "mtrap-bench-v1" files (see perf_suite.hh for the schema)
 * and compares per-scenario throughput. The verdict fails when any
 * candidate scenario errored, when the geometric-mean throughput ratio
 * over the scenarios common to both runs regresses by more than the
 * threshold, or when both files did the same work (same mode, run
 * lengths and kBenchWorkVersion) and a common scenario's simulated
 * `instructions` or `sim_cycles` differ: those counts are
 * deterministic, so a change that moves them changed simulated
 * behaviour, not speed, and must say so by bumping kBenchWorkVersion.
 * Scenarios present on only one side are reported but never fail the
 * gate — suites are allowed to grow and shrink across commits without
 * tripping the comparison.
 */

#ifndef MTRAP_PERF_BENCH_COMPARE_HH
#define MTRAP_PERF_BENCH_COMPARE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mtrap::perf
{

struct PerfOptions;
struct ScenarioResult;

/** One scenario as read back from a BENCH.json. */
struct BenchScenario
{
    std::string name;
    bool ok = false;
    double wallSeconds = 0.0;
    double instructionsPerSecond = 0.0;
    /** Simulated work: deterministic for a given mode and run length. */
    std::uint64_t instructions = 0;
    std::uint64_t simCycles = 0;
};

/** One parsed BENCH.json. */
struct BenchFile
{
    std::string schema;
    std::string mode;
    /** kBenchWorkVersion of the writer; 0 in files that predate it. */
    unsigned workVersion = 0;
    std::uint64_t measureInstructions = 0;
    std::uint64_t warmupInstructions = 0;
    std::vector<BenchScenario> scenarios;
    double scoreKips = 0.0;
    bool ok = false;
};

/**
 * Parse `text` as a BENCH.json. Returns false (with a message in
 * `err`) on malformed JSON, a missing/unknown schema tag, or missing
 * required fields.
 */
bool parseBenchJson(const std::string &text, BenchFile &out,
                    std::string &err);

/** Convert fresh in-process results, run under `opt`, to the
 *  comparison shape. */
BenchFile benchFileFromResults(const std::vector<ScenarioResult> &results,
                               const PerfOptions &opt);

struct CompareOptions
{
    /** Maximum tolerated geomean throughput regression, percent. */
    double maxRegressPct = 5.0;
};

/** Verdict of one baseline-vs-candidate comparison. */
struct CompareReport
{
    bool pass = false;
    /** geomean(candidate ips / baseline ips) over common scenarios;
     *  1.0 when there is no common scenario. */
    double geomeanRatio = 1.0;
    std::size_t commonScenarios = 0;
    /** Common scenarios whose simulated instructions or cycles differ
     *  (counted only when both files did the same work). */
    std::size_t workMismatches = 0;
    /** Human-readable per-scenario and verdict lines. */
    std::string text;
};

/**
 * Compare `candidate` (the fresh run) against `baseline` (the previous
 * run's artifact) under `opt`.
 */
CompareReport compareBench(const BenchFile &baseline,
                           const BenchFile &candidate,
                           const CompareOptions &opt = {});

} // namespace mtrap::perf

#endif // MTRAP_PERF_BENCH_COMPARE_HH

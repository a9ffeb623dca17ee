/**
 * @file
 * Self-timing simulator-throughput benchmark suite (the machinery behind
 * tools/mtrap_perf).
 *
 * Each scenario is one representative simulation shape from the paper's
 * evaluation: a 1-core SPEC profile, 4-core PARSEC runs under each
 * defence family, scheduler-driven workloads (single-core round-robin,
 * a 4-core gang-scheduled SPEC mix, and a time-shared PARSEC pair), and
 * the headline attack vignette. The harness times each scenario's wall
 * clock, takes the simulation work the scenario body reports, and
 * reports simulated cycles/second and committed instructions/second per
 * scenario plus an aggregate score — the number every hot-path
 * optimisation must move.
 *
 * BENCH.json schema (schema tag "mtrap-bench-v1"):
 * {
 *   "schema": "mtrap-bench-v1",
 *   "mode": "full" | "quick",
 *   "work_version": V,                // kBenchWorkVersion
 *   "repeats": N,
 *   "measure_instructions": M,
 *   "warmup_instructions": U,
 *   "scenarios": [
 *     { "name": "...", "ok": true,
 *       "wall_seconds": W,            // best-of-repeats wall time
 *       "sim_cycles": C,              // core-cycles simulated (best rep)
 *       "instructions": I,            // instructions committed (best rep)
 *       "cycles_per_second": C / W,
 *       "instructions_per_second": I / W,
 *       "repeats": R,                 // timing repeats actually run
 *       "peak_rss_bytes": B,          // process peak RSS after scenario
 *       "error": "..."                // only when !ok
 *     }, ...
 *   ],
 *   "host": { "build_type": "..." },  // CMAKE_BUILD_TYPE at compile time
 *   "aggregate": {
 *     "score_kips": geomean of per-scenario instructions_per_second/1e3,
 *     "wall_seconds_total": sum of per-scenario best wall times,
 *     "ok": all scenarios ok
 *   }
 * }
 *
 * The gate (mtrap_perf --compare) ignores unknown keys, so the
 * "repeats"/"peak_rss_bytes"/"host" metadata never breaks an existing
 * consumer; the schema tag stays "mtrap-bench-v1".
 */

#ifndef MTRAP_PERF_PERF_SUITE_HH
#define MTRAP_PERF_PERF_SUITE_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace mtrap::perf
{

/**
 * Version of the suite's simulated work. Every scenario's instructions
 * and sim_cycles are deterministic, and `mtrap_perf --compare` fails
 * when they differ between two files of the same mode, run lengths and
 * work version. A change that moves them on purpose (a model change, a
 * re-baselined scenario) bumps this, which makes its first comparison
 * against an older file informational instead of failing.
 */
constexpr unsigned kBenchWorkVersion = 1;

/** Scaling and repetition knobs for a suite run. */
struct PerfOptions
{
    /** Measured instructions per core per scenario (before warmup). */
    std::uint64_t measureInstructions = 200'000;
    /** Warmup instructions per core. */
    std::uint64_t warmupInstructions = 20'000;
    /** Wall-time repeats per scenario; the best (minimum) is reported. */
    unsigned repeats = 2;
    /** Quick mode: down-scaled suite for CI smoke. */
    bool quick = false;

    /** CI preset: ~10x smaller, single repeat. */
    static PerfOptions quickPreset();
};

/** Simulation work done by one scenario iteration, summed over the
 *  cores of every system it built. */
struct SimWork
{
    /** Instructions committed over each core's lifetime. */
    std::uint64_t instructions = 0;
    /** Sum of per-core final clocks (core-cycles, not makespan). */
    std::uint64_t cycles = 0;

    SimWork &operator+=(const SimWork &o)
    {
        instructions += o.instructions;
        cycles += o.cycles;
        return *this;
    }
};

/** One benchmark scenario: a named body that does simulation work. */
struct PerfScenario
{
    std::string name;
    std::string description;
    /** Runs one full iteration of the scenario's simulation work and
     *  returns that work. Throws (or fatals) on failure. */
    std::function<SimWork(const PerfOptions &)> body;
};

/** Timing outcome of one scenario. */
struct ScenarioResult
{
    std::string name;
    bool ok = true;
    std::string error;
    /** Best-of-repeats wall time for one iteration, seconds. */
    double wallSeconds = 0.0;
    /** Core-cycles simulated during the best iteration. */
    std::uint64_t simCycles = 0;
    /** Instructions committed during the best iteration. */
    std::uint64_t instructions = 0;
    /** Timing repeats actually executed. */
    unsigned repeats = 0;
    /** Process peak RSS right after the scenario finished (0 when the
     *  platform cannot report it). Cumulative by nature — a high-water
     *  mark — so per-scenario values are monotonic in run order. */
    std::uint64_t peakRssBytes = 0;

    double cyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simCycles) / wallSeconds
                   : 0.0;
    }
    double instructionsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(instructions) / wallSeconds
                   : 0.0;
    }
};

/** The default suite, in execution order. */
std::vector<PerfScenario> defaultScenarios();

/**
 * Run `scenarios` under `opt`. Emits one progress line per scenario to
 * `progress` (pass nullptr for silence). Failures are captured in the
 * result, not thrown.
 */
std::vector<ScenarioResult> runScenarios(
    const std::vector<PerfScenario> &scenarios, const PerfOptions &opt,
    std::ostream *progress);

/** Geometric mean of per-scenario instructions/second, in thousands
 *  (KIPS). Failed or zero-throughput scenarios contribute score 0. */
double aggregateScoreKips(const std::vector<ScenarioResult> &results);

/** Serialise results as BENCH.json (schema documented above). */
void writeBenchJson(const std::vector<ScenarioResult> &results,
                    const PerfOptions &opt, std::ostream &os);

} // namespace mtrap::perf

#endif // MTRAP_PERF_PERF_SUITE_HH

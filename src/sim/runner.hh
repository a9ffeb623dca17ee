/**
 * @file
 * Experiment runner: the one front door for a measured run. A RunSpec
 * names a machine (SystemConfig), a workload source — one workload, a
 * time-shared mix, or an open-system arrival stream — and the run
 * options; run() builds the system, warms it up (or restores a
 * snapshot), measures, and returns the machine with its results.
 */

#ifndef MTRAP_SIM_RUNNER_HH
#define MTRAP_SIM_RUNNER_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "sim/arrival.hh"
#include "sim/system.hh"
#include "trace/stats_series.hh"
#include "trace/trace.hh"
#include "workload/kernels.hh"

namespace mtrap
{

/** Default run lengths, shared by the runner and the CLI front ends.
 *  Small by gem5 standards but big enough for stable relative timings
 *  in this model. */
inline constexpr std::uint64_t kDefaultWarmupInstructions = 30'000;
inline constexpr std::uint64_t kDefaultMeasureInstructions = 100'000;

/** Run lengths and observation knobs for one measured run. */
struct RunOptions
{
    std::uint64_t warmupInstructions = kDefaultWarmupInstructions;
    std::uint64_t measureInstructions = kDefaultMeasureInstructions;

    /**
     * Attach a Tracer (see trace/trace.hh) to the system before the
     * run: cycle-stamped context switches, squashes, scheduler
     * decisions, filter flushes, spec-buffer clears, L2 misses and bus
     * NACKs land in per-core ring buffers for Chrome-trace/CSV export
     * (mtrap_sim --trace / --trace-csv). Off by default: no tracer is
     * allocated and every hook is a never-taken null test.
     */
    bool trace = false;
    TraceParams traceParams{};

    /**
     * Sample the stat tree into a StatSeries every this-many committed
     * instructions of the measured phase (0 = off). Relies on the
     * scheduler/system chunked == monolithic determinism contract, so
     * sampling is a pure observation: results and stats are unchanged.
     * For scheduled sources the interval counts total commits across
     * cores.
     */
    std::uint64_t statsInterval = 0;

    /**
     * Restore the machine from this snapshot file instead of running
     * the warmup phase (mtrap_sim --snapshot-in). The file's config
     * and context fingerprints must match this run's; any mismatch or
     * corruption aborts loudly. The measured phase of a restored run
     * is bit-identical to the monolithic one.
     */
    std::string snapshotIn;

    /**
     * After the warmup phase (or a restore), save a snapshot of the
     * warm machine here (mtrap_sim --snapshot-out); a server source
     * has no warmup, so its snapshot is the machine it starts from.
     * Written atomically; any I/O failure aborts loudly.
     */
    std::string snapshotOut;

    /**
     * Warm-fork directory (mtrap_batch --warm-snapshot DIR): warm
     * state is cached in DIR keyed by the (config, context)
     * fingerprint pair. A hit skips the warmup phase entirely; a miss
     * warms up and saves atomically, so concurrent sweep points racing
     * on the same key are benign (identical writers). A cached file
     * that fails validation (e.g. a format-version bump) is rewarmed
     * and overwritten, never trusted.
     */
    std::string warmSnapshotDir;
};

/**
 * Multiprogrammed source: every workload is admitted to a gang
 * scheduler as its own job and time-shares the machine under `sched`.
 * Give each job a distinct Workload::asid (see buildNamedWorkload) so
 * the processes get private address spaces.
 */
struct MixSource
{
    std::vector<Workload> jobs;
    SchedParams sched{};
};

/** Open-system source: a seeded arrival stream admits jobs into a gang
 *  scheduler mid-run (see sim/arrival.hh). */
struct ServerSource
{
    ArrivalParams arrivals{};
    SchedParams sched{};
};

/** Where a run's programs come from. A single workload runs thread i
 *  on core i with no scheduler. */
using RunSource = std::variant<Workload, MixSource, ServerSource>;

/** Everything one run needs. */
struct RunSpec
{
    /** The machine. run() raises `cores` to the widest job the source
     *  can hold. */
    SystemConfig cfg{};
    RunSource source;
    RunOptions opt{};
    /** RunResult::configName (usually a scheme name). */
    std::string configName = "custom";
};

/** Outcome of one measured run. */
struct RunResult
{
    std::string workload;
    std::string configName;
    /** Makespan of the measured phase (max over cores). */
    Cycle cycles = 0;
    /** Instructions committed per core in the measured phase. */
    std::uint64_t instructionsPerCore = 0;
    double ipc = 0.0;
};

/** One run, with the machine kept for stats-based figures such as
 *  figure 7. */
struct RunOutput
{
    RunResult result;
    /** Single-workload sources: the copy the cores run (scheduled
     *  sources are copied into the System itself). Declared before
     *  `system`, which points into it. */
    std::unique_ptr<Workload> workload;
    std::unique_ptr<System> system;
    /** Interval time-series, when RunOptions::statsInterval != 0. */
    std::unique_ptr<StatSeries> statSeries;
    /** Server sources only: the queueing report, and the arrival
     *  injector the scheduler still points at. */
    ServerReport report;
    std::unique_ptr<ArrivalInjector> injector;
};

/**
 * Run `spec`. Run lengths are per core: a single workload runs each
 * core RunOptions::{warmup,measure}Instructions commits; a mix runs
 * that many times the core count in total, and its result names the
 * members joined with '+'. A server source has no warmup phase — its
 * cold start is part of the behaviour under study — and runs until
 * every admitted job completed (measureInstructions is ignored); its
 * result carries the report's makespan and IPC.
 */
RunOutput run(const RunSpec &spec);

/** cycles(x) / cycles(base). */
double normalizedTime(const RunResult &x, const RunResult &base);

} // namespace mtrap

#endif // MTRAP_SIM_RUNNER_HH

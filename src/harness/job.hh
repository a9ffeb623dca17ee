/**
 * @file
 * Job model of the parallel experiment harness.
 *
 * A JobSpec is one self-contained simulation: it carries a workload
 * factory (the workload is built inside the worker so expensive program
 * generation parallelises too; a seeded sweep seeds it there), a full
 * SystemConfig, run options, and presentation metadata (suite / row /
 * column) that the sweep renderers and the ResultStore use to place the
 * result. Jobs never share state, so results are identical no matter
 * how many threads execute them or in what order.
 */

#ifndef MTRAP_HARNESS_JOB_HH
#define MTRAP_HARNESS_JOB_HH

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "sim/runner.hh"
#include "sim/system.hh"

namespace mtrap::harness
{

struct JobResult;

/** One experiment: everything a worker thread needs to produce one
 *  RunResult (plus optional extra metrics). */
struct JobSpec
{
    /** Global submission index; survives sharding so shard outputs can
     *  be merged back into one deterministic sequence. */
    std::size_t index = 0;

    // Presentation metadata.
    std::string suite;            ///< e.g. "fig5"
    std::string row;              ///< e.g. benchmark name
    std::string col;              ///< e.g. scheme or config label
    /** "baseline" rows anchor normalisation; everything else is "run". */
    std::string kind = "run";

    /** Builds the run's workload source inside the worker
     *  (deterministic): one workload, or a mix that time-shares
     *  cfg.cores cores under the gang scheduler. */
    std::function<RunSource()> source;
    SystemConfig cfg;
    std::string configName = "custom";
    RunOptions opt;

    /** Post-run stats probe (e.g. figure 7's bus counters). */
    std::function<void(System &, JobResult &)> collect;

    /**
     * Escape hatch for experiments that are not a single configured run
     * (the security matrix's attack choreography). When set, the pool
     * calls this instead of the standard runner; metadata and index are
     * filled in by the pool afterwards.
     */
    std::function<JobResult(const JobSpec &)> custom;

    /**
     * When set, the job runs with a Tracer attached and writes Chrome
     * trace-event JSON here after the run (mtrap_batch --trace-dir).
     * Trace contents are deterministic, so the file is identical no
     * matter which worker thread produced it.
     */
    std::string tracePath;
};

/** Outcome of one job, in submission order. */
struct JobResult
{
    std::size_t index = 0;
    std::string suite, row, col, kind;

    RunResult run;
    /** Extra named metrics from JobSpec::collect (sorted => stable
     *  serialisation). */
    std::map<std::string, double> metrics;
    /** Free-form annotation (e.g. "LEAK"/"blocked"). */
    std::string note;

    bool ok = true;
    std::string error;

    // Host-side telemetry (progress reporting only — never serialised
    // into result artifacts, which must stay machine-independent).
    /** Wall-clock seconds the worker spent on this job. */
    double wallSeconds = 0.0;
    /** Total committed instructions the job simulated (measured phase,
     *  summed over cores for scheduled jobs). */
    std::uint64_t instructions = 0;
};

/** Execute one job synchronously (exceptions propagate to the pool). */
JobResult runJob(const JobSpec &job);

/**
 * Build a bundled workload by name (SPEC-like or Parsec-like; fatal on
 * unknown names). A nonzero `seed` is mixed into the profile's
 * generation seed, re-randomising the synthetic program reproducibly —
 * the same path mtrap_sim --seed and mtrap_batch --seed use. `asid`
 * selects the process's address space (multiprogrammed mixes give each
 * job its own).
 */
Workload buildNamedWorkload(const std::string &name, std::uint64_t seed = 0,
                            Asid asid = 1);

} // namespace mtrap::harness

#endif // MTRAP_HARNESS_JOB_HH

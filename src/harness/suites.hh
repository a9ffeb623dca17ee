/**
 * @file
 * The paper's experiment suites (figures 3-9, the scheduling sweep, the
 * security matrix and the open-system server sweep) expressed as
 * harness job lists plus renderers for their tables.
 *
 * mtrap_batch is a thin wrapper around buildSuite()/runSuite(): it runs
 * any subset of the suites (optionally sharded), renders their tables
 * and archives the raw results through a ResultStore; the golden tests
 * pin those artifacts byte for byte.
 */

#ifndef MTRAP_HARNESS_SUITES_HH
#define MTRAP_HARNESS_SUITES_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/pool.hh"
#include "harness/result_store.hh"
#include "sim/report.hh"

namespace mtrap::harness
{

/** One runnable experiment suite. */
struct Suite
{
    std::string name;
    std::vector<JobSpec> jobs;

    /** Build the suite's table from the full result set. */
    std::function<ReportTable(const std::vector<JobResult> &)> render;
    /**
     * Post-table pass/fail hook (the security matrix's LEAK check);
     * prints its message and returns the suite's exit code. Null means
     * unconditional 0.
     */
    std::function<int(const std::vector<JobResult> &, std::ostream &)>
        verdict;

    /** Echo a CSV block after the table (the security matrix prints
     *  its table without one). */
    bool emitCsv = true;
    /** "<suite>: <group> done" progress lines group by row (workload)
     *  or by column (scheme, for the security matrix). */
    bool progressByCol = false;
};

/** All suite names, figure order: fig3..fig9, then sched, security and
 *  the open-system server sweep. */
const std::vector<std::string> &suiteNames();

/** Build one suite (fatal on unknown name). A nonzero `seed` is mixed
 *  into every workload's generation seed (and the server suite's
 *  arrival seeds); 0 reproduces the unseeded results exactly. */
Suite buildSuite(const std::string &name, const RunOptions &opt,
                 std::uint64_t seed = 0);

/** Optional runSuite behaviour (mtrap_batch front-end features). */
struct SuiteRunOptions
{
    /** One stderr line per finished job: name, wall seconds, simulated
     *  kinst/s, done/total and an ETA. Host telemetry only — result
     *  artifacts are unaffected. */
    bool perJobProgress = false;
    /** When non-empty, every job runs traced and writes Chrome
     *  trace-event JSON to DIR/<suite>_<index>.trace.json. */
    std::string traceDir;
    /** When non-empty, every job warm-forks through this snapshot
     *  cache directory (RunOptions::warmSnapshotDir): jobs sharing a
     *  (config, context) fingerprint pair warm up once and restore
     *  thereafter, with bit-identical results. */
    std::string warmSnapshotDir;
    /**
     * When non-empty, completed jobs are appended to this manifest
     * file (flushed per job) and jobs already recorded in it are
     * skipped, their recorded results merged back into the table
     * (mtrap_batch --resume). A killed shard restarted with the same
     * manifest finishes only the missing jobs, byte-identically.
     */
    std::string resumeManifest;
};

/**
 * Run `suite` on `pool`: emits the "<suite>: <group> done"
 * progress lines on stderr as row/column groups complete, renders the
 * table (and verdict) to stdout when `render_table`, and moves the raw
 * results into `store` when non-null. Returns the suite's exit code
 * (nonzero on job failure or verdict failure).
 */
int runSuite(const Suite &suite, ExperimentPool &pool, bool render_table,
             ResultStore *store, const SuiteRunOptions &run_opt = {});

} // namespace mtrap::harness

#endif // MTRAP_HARNESS_SUITES_HH

/**
 * @file
 * SweepBuilder: expands a cartesian experiment description — rows
 * (workloads) × columns (schemes or explicit configurations) — into a
 * flat JobSpec list for the ExperimentPool.
 *
 * Expansion order is row-major with the optional baseline first in each
 * row; job indices (and therefore shard membership and ResultStore
 * order) are assigned in that order. Every job of a row runs the same
 * workload: the sweep seed is mixed into each workload's generation
 * seed, never into a per-job one, so jobs that share a configuration
 * share a warm snapshot too.
 */

#ifndef MTRAP_HARNESS_SWEEP_HH
#define MTRAP_HARNESS_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/job.hh"

namespace mtrap::harness
{

class SweepBuilder
{
  public:
    explicit SweepBuilder(std::string suite);

    /** Run options shared by every job. */
    SweepBuilder &options(const RunOptions &opt);
    /** Sweep seed, mixed into every workload's generation seed; 0
     *  (default) keeps the profiles' own seeds. */
    SweepBuilder &seed(std::uint64_t s);

    /** Append one row per bundled workload name (SPEC or Parsec). */
    SweepBuilder &workloads(const std::vector<std::string> &names);
    /**
     * Append one multiprogrammed row: all `names` time-share the cores
     * of a schedule()d sweep as one job mix (each member gets its own
     * asid). Only valid together with schedule().
     */
    SweepBuilder &mixRow(const std::string &label,
                         const std::vector<std::string> &names);
    /**
     * Run every job (baselines included) through the gang scheduler on
     * a `cores`-core system under policy `p` — the multiprogrammed
     * suites' mode. Normalisation then compares scheduled runs against
     * the scheduled baseline, isolating each scheme's scheduling cost.
     */
    SweepBuilder &schedule(const SchedParams &p, unsigned cores);
    /** Prepend a Scheme::Baseline job to every row (run exactly once
     *  per workload; anchors normalisation). */
    SweepBuilder &withBaseline();

    /** Column: a named scheme on the Table-1 system. */
    SweepBuilder &scheme(Scheme s);
    SweepBuilder &schemes(const std::vector<Scheme> &ss);
    /** Column: an explicit configuration. `label` is the table column
     *  header, `config_name` the RunResult config name. */
    SweepBuilder &config(std::string label, std::string config_name,
                         const SystemConfig &cfg);
    /** Columns: MuonTrap with a fully-associative data filter cache of
     *  each size (figure 5). */
    SweepBuilder &filterSizes(const std::vector<std::uint64_t> &sizes);
    /** Columns: MuonTrap with a `size_bytes` data filter cache at each
     *  associativity (figure 6). */
    SweepBuilder &filterAssocs(const std::vector<unsigned> &assocs,
                               std::uint64_t size_bytes);

    /** Stats probe attached to every non-baseline job. */
    SweepBuilder &collect(std::function<void(System &, JobResult &)> fn);

    /** Column labels in insertion order (for renderers). */
    const std::vector<std::string> &columnLabels() const { return labels_; }
    /** Row labels in insertion order. */
    const std::vector<std::string> &rowLabels() const { return rowLabels_; }

    /** Expand into the flat, index-stamped job list. */
    std::vector<JobSpec> build() const;

  private:
    struct Column
    {
        std::string label;
        std::string configName;
        SystemConfig cfg;
    };

    /** One row: a single workload, or (mix) several time-shared ones. */
    struct Row
    {
        std::string label;
        std::vector<std::string> names;
    };

    std::string suite_;
    RunOptions opt_;
    std::uint64_t seed_ = 0;
    bool baseline_ = false;
    bool scheduled_ = false;
    SchedParams sched_;
    unsigned schedCores_ = 1;
    std::vector<Row> rows_;
    std::vector<std::string> rowLabels_;
    std::vector<Column> cols_;
    std::vector<std::string> labels_;
    std::function<void(System &, JobResult &)> collect_;
};

} // namespace mtrap::harness

#endif // MTRAP_HARNESS_SWEEP_HH

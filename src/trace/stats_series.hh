/**
 * @file
 * Interval-sampled stat time-series: every N committed instructions the
 * runner snapshots the live StatSheet tree into one delta-encoded row,
 * turning the end-of-run aggregates into per-interval IPC, miss rates,
 * filter-flush counts and per-core utilisation.
 *
 * PR 5's interned stat schema makes this cheap: at construction the
 * series walks the tree once, keeps a direct word pointer per Counter
 * (the sheets are inline and stable for the System's lifetime), and
 * each sample() is then a single pass of loads and subtractions — no
 * name materialisation, no allocation beyond the appended row.
 *
 * Only Counter-kind stats are captured: they are monotonic within a
 * measured phase, so interval deltas are well defined and sum exactly
 * to the end-of-run aggregate (the property the tests pin). Averages
 * and formulas are derivable offline from counter columns.
 */

#ifndef MTRAP_TRACE_STATS_SERIES_HH
#define MTRAP_TRACE_STATS_SERIES_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

/** Delta-encoded per-interval snapshot of every Counter in a tree. */
class StatSeries
{
  public:
    /** One sampled interval. */
    struct Row
    {
        /** Makespan clock at the sample point. */
        Cycle cycle = 0;
        /** Committed-instruction odometer at the sample point (the
         *  runner's run-budget units). */
        std::uint64_t instructions = 0;
        /** Per-column increments since the previous row. */
        std::vector<std::uint64_t> delta;
    };

    /**
     * Capture the column set (every Counter reachable from `root`, in
     * visit order) and the baseline values. Construct *after*
     * System::resetStats so interval deltas sum to the final
     * aggregates.
     */
    StatSeries(const StatGroup &root, std::uint64_t interval_instructions,
               Cycle start_cycle = 0);

    /** Append one row covering everything since the last sample. */
    void sample(Cycle now, std::uint64_t instructions_done);

    std::uint64_t interval() const { return interval_; }
    const std::vector<std::string> &columns() const { return columns_; }
    const std::vector<Row> &rows() const { return rows_; }

    /** Column index of `path`, or -1. */
    int columnIndex(const std::string &path) const;

    /** Sum of a column over all rows (== final aggregate - baseline). */
    std::uint64_t columnTotal(std::size_t col) const;

    /**
     * CSV: `cycle,instructions,ipc,<column>...` — one row per interval.
     * `ipc` is committed instructions per makespan cycle within the
     * interval, derived from the per-core `committed` columns.
     */
    void writeCsv(std::ostream &os) const;

    /** Interval IPC of `row` (see writeCsv). */
    double intervalIpc(std::size_t row) const;

  private:
    std::uint64_t interval_ = 0;
    std::vector<std::string> columns_;
    /** Live word pointer per column (stable: sheets are inline). */
    std::vector<const std::uint64_t *> words_;
    /** Value at the previous sample (baseline for the next delta). */
    std::vector<std::uint64_t> prev_;
    /** Columns named "*.committed" (per-core commit counters). */
    std::vector<std::size_t> committedCols_;
    std::vector<Row> rows_;
    Cycle prevCycle_ = 0;
};

} // namespace mtrap

#endif // MTRAP_TRACE_STATS_SERIES_HH

/**
 * @file
 * JSON statistics emission: serialise a StatGroup tree (or a RunResult)
 * into a machine-readable blob for plotting and regression tracking.
 */

#ifndef MTRAP_SIM_JSON_STATS_HH
#define MTRAP_SIM_JSON_STATS_HH

#include <ostream>
#include <string>

#include "common/stats.hh"
#include "sim/runner.hh"

namespace mtrap
{

/**
 * Emit every stat reachable from `group` as a flat JSON object keyed by
 * dotted path ("system.core0.committed": "120000", ...). Values are the
 * formatted strings so every stat kind serialises uniformly.
 */
void dumpStatsJson(const StatGroup &group, std::ostream &os);

/** Emit one run result as a JSON object. */
void dumpRunResultJson(const RunResult &r, std::ostream &os);

} // namespace mtrap

#endif // MTRAP_SIM_JSON_STATS_HH

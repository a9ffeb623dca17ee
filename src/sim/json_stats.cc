#include "sim/json_stats.hh"

#include "common/json.hh"
#include "common/log.hh"

namespace mtrap
{

void
dumpStatsJson(const StatGroup &group, std::ostream &os)
{
    os << "{";
    bool first = true;
    // Both the dotted name and the formatted value are escaped: stat
    // paths include runtime group names (workload/config labels can
    // reach CacheParams::name), and a hostile label must not be able to
    // break the JSON framing.
    group.visit([&os, &first](const std::string &path,
                              const StatView &stat) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << jsonEscape(path) << "\": \""
           << jsonEscape(stat.format()) << "\"";
    });
    os << "\n}\n";
}

void
dumpRunResultJson(const RunResult &r, std::ostream &os)
{
    os << "{\n"
       << "  \"workload\": \"" << jsonEscape(r.workload) << "\",\n"
       << "  \"config\": \"" << jsonEscape(r.configName) << "\",\n"
       << "  \"cycles\": " << r.cycles << ",\n"
       << "  \"instructions_per_core\": " << r.instructionsPerCore
       << ",\n"
       << "  \"ipc\": " << strfmt("%.6f", r.ipc) << "\n"
       << "}\n";
}

} // namespace mtrap

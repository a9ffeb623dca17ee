#include "harness/result_store.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/json.hh"

namespace mtrap::harness
{

namespace
{

std::string
fmtDouble(double v)
{
    return strfmt("%.9g", v);
}

/**
 * RFC 4180 field quoting: a field containing a comma, double quote, CR
 * or LF is wrapped in double quotes with embedded quotes doubled. Clean
 * fields pass through verbatim, so artifacts from well-behaved sweeps
 * are unchanged.
 */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

void
ResultStore::add(JobResult r)
{
    results_.push_back(std::move(r));
    dirty_ = true;
}

void
ResultStore::addAll(std::vector<JobResult> rs)
{
    for (auto &r : rs)
        add(std::move(r));
}

bool
ResultStore::allOk() const
{
    for (const JobResult &r : results_)
        if (!r.ok)
            return false;
    return true;
}

const std::vector<JobResult> &
ResultStore::sorted() const
{
    if (dirty_) {
        std::stable_sort(results_.begin(), results_.end(),
                         [](const JobResult &a, const JobResult &b) {
                             if (a.suite != b.suite)
                                 return a.suite < b.suite;
                             return a.index < b.index;
                         });
        dirty_ = false;
    }
    return results_;
}

void
ResultStore::writeJson(std::ostream &os) const
{
    os << "[\n";
    const auto &rs = sorted();
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const JobResult &r = rs[i];
        os << "  {\"suite\": \"" << jsonEscape(r.suite) << "\""
           << ", \"index\": " << r.index
           << ", \"row\": \"" << jsonEscape(r.row) << "\""
           << ", \"col\": \"" << jsonEscape(r.col) << "\""
           << ", \"kind\": \"" << jsonEscape(r.kind) << "\""
           << ", \"workload\": \"" << jsonEscape(r.run.workload) << "\""
           << ", \"config\": \"" << jsonEscape(r.run.configName) << "\""
           << ", \"cycles\": " << r.run.cycles
           << ", \"instructions\": " << r.run.instructionsPerCore
           << ", \"ipc\": " << fmtDouble(r.run.ipc);
        if (!r.metrics.empty()) {
            os << ", \"metrics\": {";
            bool first = true;
            for (const auto &[k, v] : r.metrics) {
                os << (first ? "" : ", ") << "\"" << jsonEscape(k)
                   << "\": " << fmtDouble(v);
                first = false;
            }
            os << "}";
        }
        if (!r.note.empty())
            os << ", \"note\": \"" << jsonEscape(r.note) << "\"";
        os << ", \"ok\": " << (r.ok ? "true" : "false");
        if (!r.ok)
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        os << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

void
ResultStore::writeCsv(std::ostream &os) const
{
    os << "suite,index,row,col,kind,workload,config,cycles,instructions,"
          "ipc,note,ok,metrics\n";
    for (const JobResult &r : sorted()) {
        os << csvField(r.suite) << "," << r.index << ","
           << csvField(r.row) << "," << csvField(r.col) << ","
           << csvField(r.kind) << "," << csvField(r.run.workload) << ","
           << csvField(r.run.configName) << "," << r.run.cycles << ","
           << r.run.instructionsPerCore << "," << fmtDouble(r.run.ipc)
           << "," << csvField(r.note) << "," << (r.ok ? "1" : "0")
           << ",";
        std::string metrics;
        bool first = true;
        for (const auto &[k, v] : r.metrics) {
            metrics += (first ? "" : ";");
            metrics += k;
            metrics += "=";
            metrics += fmtDouble(v);
            first = false;
        }
        os << csvField(metrics) << "\n";
    }
}

} // namespace mtrap::harness

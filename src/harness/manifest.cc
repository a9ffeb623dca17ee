#include "harness/manifest.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/parse.hh"

namespace mtrap::harness
{

namespace
{

/** Record layout version; bump on any field change. */
constexpr const char *kTag = "mtrapres1";
constexpr const char *kEnd = "#end";

/** Fixed tokens before the metric pairs: tag, suite, index, row, col,
 *  kind, workload, configName, cycles, instructionsPerCore, ipc,
 *  metric count. After the pairs: note, end sentinel. */
constexpr std::size_t kFixedTokens = 12;
constexpr std::size_t kTrailTokens = 2;

std::string
sanitize(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (c == '\t' || c == '\n' || c == '\r')
            c = ' ';
    return out;
}

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Split on tabs, keeping empty tokens (`note` may be empty). */
std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno || !end || *end)
        return false;
    out = v;
    return true;
}

/** Decode one line; returns false on any malformation (the caller
 *  skips the record and the job simply re-runs). */
bool
parseRecord(const std::string &line, JobResult &r)
{
    const std::vector<std::string> t = splitTabs(line);
    if (t.size() < kFixedTokens + kTrailTokens || t.front() != kTag
        || t.back() != kEnd)
        return false;

    std::uint64_t index = 0, cycles = 0, ipcore = 0, nmetrics = 0;
    if (!parseU64(t[2], index) || !parseU64(t[8], cycles)
        || !parseU64(t[9], ipcore) || !parseU64(t[11], nmetrics))
        return false;
    if (t.size() != kFixedTokens + 2 * nmetrics + kTrailTokens)
        return false;

    double ipc = 0.0;
    if (!parseDouble(t[10], ipc))
        return false;

    r = JobResult{};
    r.index = static_cast<std::size_t>(index);
    r.suite = t[1];
    r.row = t[3];
    r.col = t[4];
    r.kind = t[5];
    r.run.workload = t[6];
    r.run.configName = t[7];
    r.run.cycles = cycles;
    r.run.instructionsPerCore = ipcore;
    r.run.ipc = ipc;
    for (std::uint64_t i = 0; i < nmetrics; ++i) {
        double v = 0.0;
        if (!parseDouble(t[kFixedTokens + 2 * i + 1], v))
            return false;
        r.metrics[t[kFixedTokens + 2 * i]] = v;
    }
    r.note = t[t.size() - 2];
    r.ok = true;
    return true;
}

} // namespace

std::string
resumeManifestLine(const JobResult &r)
{
    std::ostringstream os;
    os << kTag << '\t' << sanitize(r.suite) << '\t' << r.index << '\t'
       << sanitize(r.row) << '\t' << sanitize(r.col) << '\t'
       << sanitize(r.kind) << '\t' << sanitize(r.run.workload) << '\t'
       << sanitize(r.run.configName) << '\t' << r.run.cycles << '\t'
       << r.run.instructionsPerCore << '\t' << formatDouble(r.run.ipc)
       << '\t' << r.metrics.size();
    for (const auto &[k, v] : r.metrics)
        os << '\t' << sanitize(k) << '\t' << formatDouble(v);
    os << '\t' << sanitize(r.note) << '\t' << kEnd;
    return os.str();
}

std::vector<JobResult>
loadResumeManifest(const std::string &path, const std::string &suite)
{
    std::ifstream f(path);
    if (!f)
        return {}; // first run: nothing recorded yet
    std::map<std::size_t, JobResult> byIndex;
    std::string line;
    while (std::getline(f, line)) {
        JobResult r;
        if (parseRecord(line, r) && r.suite == suite)
            byIndex[r.index] = std::move(r);
    }
    std::vector<JobResult> out;
    out.reserve(byIndex.size());
    for (auto &[idx, r] : byIndex)
        out.push_back(std::move(r));
    return out;
}

} // namespace mtrap::harness

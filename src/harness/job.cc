#include "harness/job.hh"

#include <chrono>
#include <stdexcept>

#include "common/checked_io.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "trace/chrome_trace.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap::harness
{

namespace
{

/** Dump the attached tracer's capture for a --trace-dir job. */
void
writeJobTrace(const JobSpec &job, RunOutput &out)
{
    if (job.tracePath.empty())
        return;
    CheckedOfstream f(job.tracePath, "job trace");
    writeChromeTrace(*out.system->tracer(), out.statSeries.get(),
                     f.stream());
    f.finish();
}

/** Wall-clock seconds since `t0` (host telemetry only). */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

JobResult
runJob(const JobSpec &spec)
{
    const auto t0 = std::chrono::steady_clock::now();
    JobSpec job = spec;
    if (!job.tracePath.empty())
        job.opt.trace = true;
    JobResult r;
    r.index = job.index;
    r.suite = job.suite;
    r.row = job.row;
    r.col = job.col;
    r.kind = job.kind;

    if (job.custom) {
        JobResult custom = job.custom(job);
        custom.index = job.index;
        custom.suite = job.suite;
        custom.row = job.row;
        custom.col = job.col;
        custom.kind = job.kind;
        custom.wallSeconds = secondsSince(t0);
        return custom;
    }

    if (!job.source)
        throw std::runtime_error("job " + std::to_string(job.index)
                                 + " has neither a source nor custom fn");

    const RunSpec run_spec{job.cfg, job.source(), job.opt,
                           job.configName};
    RunOutput out = run(run_spec);
    r.run = out.result;
    if (job.collect)
        job.collect(*out.system, r);
    writeJobTrace(job, out);
    r.instructions = out.result.instructionsPerCore
                     * out.system->numCores();
    r.wallSeconds = secondsSince(t0);
    return r;
}

Workload
buildNamedWorkload(const std::string &name, std::uint64_t seed, Asid asid)
{
    for (const std::string &n : specBenchmarkNames()) {
        if (n == name) {
            WorkloadProfile p = specProfile(name);
            if (seed)
                p.seed = mixSeeds(p.seed, seed);
            return buildWorkload(p, asid);
        }
    }
    for (const std::string &n : parsecBenchmarkNames()) {
        if (n == name) {
            WorkloadProfile p = parsecProfile(name);
            if (seed)
                p.seed = mixSeeds(p.seed, seed);
            return buildWorkload(p, asid);
        }
    }
    fatal("unknown workload '%s' (try --list)", name.c_str());
}

} // namespace mtrap::harness

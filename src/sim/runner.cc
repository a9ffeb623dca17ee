#include "sim/runner.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

/** Threads of the widest job `src` can place on the machine. */
unsigned
widestJob(const RunSource &src)
{
    if (const auto *w = std::get_if<Workload>(&src))
        return w->threads();
    if (const auto *mix = std::get_if<MixSource>(&src)) {
        unsigned n = 1;
        for (const Workload &w : mix->jobs)
            n = std::max(n, w.threads());
        return n;
    }
    return maxArrivalThreads(std::get<ServerSource>(src).arrivals);
}

void
mixSched(Fingerprint &fp, const SchedParams &sched)
{
    fp.mix(sched.quantum);
    fp.mix(sched.gang ? 1 : 0);
    fp.mix(sched.migrate ? 1 : 0);
    fp.mix(sched.affinity ? 1 : 0);
}

void
mixWorkload(Fingerprint &fp, const Workload &w)
{
    fp.mix(w.name);
    fp.mix(w.asid);
    fp.mix(w.seed);
    fp.mix(w.threads());
}

/**
 * Context fingerprint of a run: everything besides the SystemConfig
 * that shapes the machine at the end of its warm phase. Two runs
 * sharing (config fingerprint, context fingerprint) have bit-identical
 * warm machines — which is exactly what lets them share a snapshot.
 */
std::uint64_t
contextFingerprint(const RunSpec &spec)
{
    Fingerprint fp;
    if (const auto *w = std::get_if<Workload>(&spec.source)) {
        fp.mix("single");
        mixWorkload(fp, *w);
    } else if (const auto *mix = std::get_if<MixSource>(&spec.source)) {
        fp.mix("mix");
        fp.mix(mix->jobs.size());
        for (const Workload &w : mix->jobs)
            mixWorkload(fp, w);
        mixSched(fp, mix->sched);
    } else {
        const ServerSource &server = std::get<ServerSource>(spec.source);
        const ArrivalParams &a = server.arrivals;
        fp.mix("server");
        fp.mix(a.seed);
        fp.mix(arrivalPatternName(a.pattern));
        fp.mix(a.jobs);
        fp.mix(a.meanInterarrival);
        fp.mix(a.burstSize);
        fp.mix(a.burstSpacing);
        fp.mix(a.serviceMinCommits);
        fp.mix(a.serviceMaxCommits);
        fp.mix(a.deadlineFactor);
        fp.mix(a.maxWeight);
        fp.mix(a.sleepPeriodCommits);
        fp.mix(a.sleepDurationCycles);
        fp.mix(a.profiles.size());
        for (const std::string &name : a.profiles)
            fp.mix(name);
        fp.mix(a.firstAsid);
        mixSched(fp, server.sched);
    }
    const RunOptions &opt = spec.opt;
    fp.mix(opt.warmupInstructions);
    fp.mix(opt.trace ? 1 : 0);
    if (opt.trace)
        fp.mix(opt.traceParams.bufferEntries);
    return fp.value();
}

std::string
warmSnapshotPath(const std::string &dir, std::uint64_t cfg_fp,
                 std::uint64_t ctx_fp)
{
    char name[64];
    std::snprintf(name, sizeof(name), "/warm-%016llx-%016llx.snap",
                  static_cast<unsigned long long>(cfg_fp),
                  static_cast<unsigned long long>(ctx_fp));
    return dir + name;
}

/**
 * Drive `budget` commits — per core through absolute System::runTo
 * targets for a single workload (so a chunked phase lands on exactly
 * the commits a monolithic one does), in total through the scheduler
 * otherwise — in chunks of `step`, sampling `series` after every chunk
 * that committed anything. Stops early once a scheduled machine runs
 * out of work.
 */
void
drive(System &sys, bool single, std::uint64_t budget, std::uint64_t step,
      StatSeries *series)
{
    std::vector<std::uint64_t> base;
    if (single)
        for (unsigned c = 0; c < sys.numCores(); ++c)
            base.push_back(sys.core(c).committedCount());
    std::uint64_t done = 0;
    while (done < budget) {
        const std::uint64_t n = std::min(step, budget - done);
        std::uint64_t did = n;
        if (single) {
            std::vector<std::uint64_t> targets(base);
            for (std::uint64_t &t : targets)
                t += done + n;
            sys.runTo(targets);
        } else {
            did = sys.runScheduled(n);
        }
        done += did;
        if (series && did)
            series->sample(sys.maxCommitCycle(), done);
        if (did < n)
            break; // every task halted, no arrivals pending
    }
}

} // namespace

RunOutput
run(const RunSpec &spec)
{
    const RunOptions &opt = spec.opt;
    const auto *single = std::get_if<Workload>(&spec.source);
    const auto *mix = std::get_if<MixSource>(&spec.source);
    const auto *server = std::get_if<ServerSource>(&spec.source);
    if (mix && mix->jobs.empty())
        fatal("run: empty mix");

    SystemConfig c = spec.cfg;
    c.cores = std::max(c.cores, widestJob(spec.source));
    c.mem.cores = c.cores;

    RunOutput out;
    out.system = std::make_unique<System>(c);
    System &sys = *out.system;
    if (opt.trace)
        sys.attachTracer(opt.traceParams);
    RunResult &r = out.result;
    r.configName = spec.configName;
    if (single) {
        out.workload = std::make_unique<Workload>(*single);
        sys.loadWorkload(*out.workload);
        r.workload = single->name;
    } else if (mix) {
        sys.attachScheduler(mix->sched);
        for (const Workload &w : mix->jobs) {
            sys.addScheduledWorkload(w);
            r.workload += (r.workload.empty() ? "" : "+") + w.name;
        }
    } else {
        sys.attachScheduler(server->sched);
        out.injector =
            std::make_unique<ArrivalInjector>(sys, server->arrivals);
        sys.scheduler()->setArrivalSource(out.injector.get());
        r.workload = "server";
    }

    // Warm phase: restore from an explicit snapshot, hit the warm-fork
    // cache, or run the warmup — then publish the warm machine wherever
    // the options ask. An unreadable or invalid warm-cache entry counts
    // as a miss (rewarmed and atomically overwritten); an explicit
    // --snapshot-in failure throws. Server images wrap the System image
    // in an admission-count frame (sim/arrival.hh).
    const std::uint64_t ctx_fp = contextFingerprint(spec);
    const std::uint64_t cfg_fp = sys.configFingerprint();
    auto restore = [&](std::vector<std::uint8_t> image) {
        if (server)
            restoreServerSnapshot(sys, *out.injector, std::move(image),
                                  ctx_fp);
        else
            sys.restoreSnapshot(std::move(image), ctx_fp);
    };
    auto save = [&](const std::string &path) {
        writeSnapshotFile(path,
                          server ? saveServerSnapshot(sys, *out.injector,
                                                      ctx_fp)
                                 : sys.saveSnapshot(ctx_fp));
    };
    // Per core for a single workload, in total for scheduled sources.
    const std::uint64_t scale = single ? 1 : c.cores;
    bool restored = false;
    std::string warm_path;
    if (!opt.snapshotIn.empty()) {
        restore(readSnapshotFile(opt.snapshotIn));
        restored = true;
    } else if (!opt.warmSnapshotDir.empty()) {
        warm_path = warmSnapshotPath(opt.warmSnapshotDir, cfg_fp, ctx_fp);
        std::vector<std::uint8_t> image;
        try {
            image = readSnapshotFile(warm_path);
            // Validate the full framing (magic, version, fingerprints,
            // CRC) before touching the machine: a failure here leaves
            // the system pristine for the warmup fallback, while a
            // failure inside the restore (a fingerprint-matching yet
            // inconsistent file) propagates loudly.
            Deserializer probe(image, cfg_fp, ctx_fp);
            (void)probe;
            restored = true;
        } catch (const SnapshotError &) {
        }
        if (restored)
            restore(std::move(image));
    }
    if (!restored) {
        const std::uint64_t warmup =
            server ? 0 : opt.warmupInstructions * scale;
        drive(sys, single, warmup, warmup, nullptr);
        if (!warm_path.empty())
            save(warm_path);
    }
    if (!opt.snapshotOut.empty())
        save(opt.snapshotOut);

    // Measured phase. A server runs until every job has completed (the
    // arrival schedule bounds the work), in 50k-commit chunks unless
    // sampling picks the chunk.
    sys.resetStats();
    const Cycle start = sys.maxCommitCycle();
    if (opt.statsInterval)
        out.statSeries = std::make_unique<StatSeries>(
            sys.root(), opt.statsInterval, start);
    const std::uint64_t budget =
        server ? std::numeric_limits<std::uint64_t>::max()
               : opt.measureInstructions * scale;
    const std::uint64_t step =
        opt.statsInterval ? opt.statsInterval : server ? 50'000 : budget;
    drive(sys, single, budget, step, out.statSeries.get());

    if (server) {
        out.report = ServerReport::build(sys, *out.injector);
        r.cycles = out.report.makespan ? out.report.makespan : 1;
        r.ipc = out.report.ipc;
    } else {
        const Cycle end = sys.maxCommitCycle();
        r.cycles = end > start ? end - start : 1;
        r.instructionsPerCore = opt.measureInstructions;
        r.ipc = static_cast<double>(opt.measureInstructions)
                / static_cast<double>(r.cycles);
    }
    return out;
}

double
normalizedTime(const RunResult &x, const RunResult &base)
{
    if (base.cycles == 0)
        fatal("normalizedTime: zero baseline cycles");
    return static_cast<double>(x.cycles)
           / static_cast<double>(base.cycles);
}

} // namespace mtrap

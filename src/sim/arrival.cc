#include "sim/arrival.hh"

#include <algorithm>
#include <iomanip>

#include "common/log.hh"
#include "common/rng.hh"
#include "snapshot/snapshot.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{

namespace
{

/**
 * Quantized exponential draw: mean * (-ln(u)) with u midpoint-sampled
 * from 64 equiprobable bins, the -ln values pre-scaled by 1024 and
 * baked in as integers. Pure integer arithmetic at runtime, so the
 * schedule is bit-identical on every platform (no libm in the
 * determinism contract); the quantization keeps the heavy tail (worst
 * bin is ~4.9x the mean) and a mean within 1% of the target.
 */
Cycle
expGap(Rng &rng, Cycle mean)
{
    static constexpr std::uint16_t kNegLn1024[64] = {
        4969, 3844, 3320, 2976, 2719, 2513, 2342, 2195,
        2067, 1953, 1851, 1758, 1672, 1594, 1520, 1452,
        1388, 1328, 1271, 1217, 1166, 1117, 1070, 1026,
        983,  942,  903,  865,  828,  793,  759,  726,
        694,  663,  633,  604,  575,  547,  520,  494,
        469,  444,  419,  395,  372,  349,  327,  305,
        284,  263,  243,  223,  203,  184,  165,  146,
        128,  110,  92,   75,   58,   41,   24,   8,
    };
    const Cycle gap = (mean * kNegLn1024[rng.below(64)]) >> 10;
    return gap ? gap : 1;
}

/** The default offered-load mix: six SPEC-like profiles spanning the
 *  paper's behaviour classes (pointer-chasing, compute, streaming,
 *  branchy, MLP-heavy, store-heavy). */
const std::vector<std::string> &
defaultProfileMix()
{
    static const std::vector<std::string> kMix = {
        "mcf", "gcc", "hmmer", "libquantum", "astar", "lbm",
    };
    return kMix;
}

/** Resolve a profile name against the SPEC then Parsec tables. */
WorkloadProfile
resolveProfile(const std::string &name)
{
    const auto &spec = specBenchmarkNames();
    if (std::find(spec.begin(), spec.end(), name) != spec.end())
        return specProfile(name);
    const auto &parsec = parsecBenchmarkNames();
    if (std::find(parsec.begin(), parsec.end(), name) != parsec.end())
        return parsecProfile(name);
    fatal("arrival: unknown workload profile '%s'", name.c_str());
}

} // namespace

const char *
arrivalPatternName(ArrivalPattern p)
{
    switch (p) {
      case ArrivalPattern::Poisson: return "poisson";
      case ArrivalPattern::Burst: return "burst";
    }
    return "?";
}

std::vector<ArrivalEvent>
generateArrivalSchedule(const ArrivalParams &p)
{
    if (!p.meanInterarrival)
        fatal("arrival: meanInterarrival must be non-zero");
    if (!p.burstSize)
        fatal("arrival: burstSize must be non-zero");
    if (!p.serviceMinCommits || p.serviceMaxCommits < p.serviceMinCommits)
        fatal("arrival: need 0 < serviceMinCommits <= serviceMaxCommits");
    if (!p.maxWeight)
        fatal("arrival: maxWeight must be >= 1");
    const std::vector<std::string> &mix =
        p.profiles.empty() ? defaultProfileMix() : p.profiles;
    for (const std::string &name : mix)
        (void)resolveProfile(name); // validate up front, fatal if unknown

    Rng rng(p.seed);
    std::vector<ArrivalEvent> events;
    events.reserve(p.jobs);
    Cycle t = 0;
    for (std::uint64_t i = 0; i < p.jobs; ++i) {
        if (p.pattern == ArrivalPattern::Poisson) {
            t += expGap(rng, p.meanInterarrival);
        } else if (i % p.burstSize == 0) {
            // Burst gaps carry the whole burst's share of the rate, so
            // both patterns offer the same long-run load.
            t += expGap(rng, p.meanInterarrival * p.burstSize);
        } else {
            t += p.burstSpacing ? p.burstSpacing : 1;
        }
        ArrivalEvent e;
        e.at = t;
        e.profile = mix[rng.below(mix.size())];
        e.serviceCommits = rng.range(p.serviceMinCommits,
                                     p.serviceMaxCommits);
        e.weight = p.maxWeight > 1
                       ? static_cast<unsigned>(rng.range(1, p.maxWeight))
                       : 1;
        e.deadline = p.deadlineFactor
                         ? e.at + e.serviceCommits * p.deadlineFactor
                         : 0;
        e.workloadSeed = mixSeeds(p.seed, 0x6a6f627365656433ull + i);
        events.push_back(std::move(e));
    }
    return events;
}

unsigned
maxArrivalThreads(const ArrivalParams &p)
{
    unsigned n = 1;
    for (const std::string &name : p.profiles)
        n = std::max(n, resolveProfile(name).threads);
    return n;
}

ArrivalInjector::ArrivalInjector(System &sys, const ArrivalParams &p)
    : sys_(sys), params_(p), events_(generateArrivalSchedule(p))
{
}

Cycle
ArrivalInjector::nextArrivalCycle() const
{
    return next_ < events_.size() ? events_[next_].at : 0;
}

unsigned
ArrivalInjector::admitUpTo(Cycle now)
{
    unsigned n = 0;
    while (next_ < events_.size() && events_[next_].at <= now) {
        admitOne(events_[next_], next_);
        ++next_;
        ++n;
    }
    return n;
}

void
ArrivalInjector::replayAdmissions(std::size_t n)
{
    if (next_ != 0)
        fatal("arrival: replayAdmissions on a non-fresh injector");
    if (n > events_.size())
        throw SnapshotError("server image admits more jobs than the "
                            "arrival schedule holds");
    while (next_ < n) {
        admitOne(events_[next_], next_);
        ++next_;
    }
}

void
ArrivalInjector::admitOne(const ArrivalEvent &e, std::size_t index)
{
    WorkloadProfile wp = resolveProfile(e.profile);
    // Distinct jobs of the same benchmark get distinct kernel seeds so
    // they do not march through identical address streams in lockstep.
    wp.seed = mixSeeds(wp.seed, e.workloadSeed);
    Workload w = buildWorkload(
        wp, static_cast<Asid>(params_.firstAsid + index));
    w.name += "#" + std::to_string(index);

    JobAdmit admit;
    admit.arrivalCycle = e.at;
    admit.serviceLimit = e.serviceCommits;
    admit.deadline = e.deadline;
    admit.weight = e.weight;
    admit.sleepPeriodCommits = params_.sleepPeriodCommits;
    admit.sleepDurationCycles = params_.sleepDurationCycles;
    sys_.addScheduledWorkload(w, admit);
}

Cycle
percentileCycles(std::vector<Cycle> samples, unsigned pct)
{
    if (samples.empty())
        return 0;
    if (pct < 1 || pct > 100)
        fatal("percentileCycles: pct %u outside [1,100]", pct);
    std::sort(samples.begin(), samples.end());
    // Nearest-rank: index = ceil(pct * n / 100) - 1, integer-exact.
    const std::size_t n = samples.size();
    std::size_t idx = (static_cast<std::size_t>(pct) * n + 99) / 100;
    idx = idx ? idx - 1 : 0;
    return samples[std::min(idx, n - 1)];
}

ServerReport
ServerReport::build(System &sys, const ArrivalInjector &inj)
{
    Scheduler *sched = sys.scheduler();
    if (!sched)
        fatal("ServerReport: system has no scheduler");

    ServerReport r;
    r.admitted = inj.admitted();
    r.makespan = sys.maxCommitCycle();

    std::vector<Cycle> sojourn;
    std::vector<Cycle> wait;
    double sojourn_sum = 0.0;
    for (const JobRecord &j : sched->jobRecords()) {
        r.committed += j.committed;
        if (j.started)
            wait.push_back(j.firstRun - j.arrival);
        if (j.deadline) {
            ++r.deadlineTotal;
            if (!j.done || j.finish > j.deadline)
                ++r.deadlineMisses;
        }
        if (!j.done)
            continue;
        ++r.completed;
        const Cycle s = j.finish - j.arrival;
        sojourn.push_back(s);
        sojourn_sum += static_cast<double>(s);
        r.sojournMax = std::max(r.sojournMax, s);
    }

    r.sojournP50 = percentileCycles(sojourn, 50);
    r.sojournP95 = percentileCycles(sojourn, 95);
    r.sojournP99 = percentileCycles(sojourn, 99);
    r.waitP50 = percentileCycles(wait, 50);
    r.waitP95 = percentileCycles(wait, 95);
    r.waitP99 = percentileCycles(wait, 99);
    if (r.completed)
        r.meanSojourn = sojourn_sum / static_cast<double>(r.completed);

    if (r.makespan) {
        std::uint64_t busy = 0;
        for (CoreId c = 0; c < static_cast<CoreId>(sched->coreCount()); ++c)
            busy += sched->busyCycles(c);
        r.occupancy = static_cast<double>(busy)
                      / (static_cast<double>(sched->coreCount())
                         * static_cast<double>(r.makespan));
        r.throughputPerMcycle = static_cast<double>(r.completed) * 1e6
                                / static_cast<double>(r.makespan);
        r.ipc = static_cast<double>(r.committed)
                / static_cast<double>(r.makespan);
    }
    return r;
}

void
ServerReport::print(std::ostream &os) const
{
    os << "server: " << completed << "/" << admitted
       << " jobs completed, makespan " << makespan << " cycles\n"
       << "  sojourn  p50/p95/p99/max: " << sojournP50 << " / "
       << sojournP95 << " / " << sojournP99 << " / " << sojournMax
       << " cycles (mean " << std::fixed << std::setprecision(1)
       << meanSojourn << ")\n"
       << "  wait     p50/p95/p99:     " << waitP50 << " / " << waitP95
       << " / " << waitP99 << " cycles\n"
       << "  occupancy " << std::setprecision(3) << occupancy
       << ", throughput " << throughputPerMcycle
       << " jobs/Mcycle, ipc " << ipc << "\n";
    if (deadlineTotal)
        os << "  deadlines: " << deadlineMisses << "/" << deadlineTotal
           << " missed ("
           << std::setprecision(1)
           << 100.0 * static_cast<double>(deadlineMisses)
                  / static_cast<double>(deadlineTotal)
           << "%)\n";
}

std::vector<std::uint8_t>
saveServerSnapshot(const System &sys, const ArrivalInjector &inj,
                   std::uint64_t ctx_fp)
{
    Serializer s;
    s.beginSection(kTagArrival);
    s.u64(inj.admitted());
    // Inner System image, tagged with an admission-count-mixed context
    // so an outer frame spliced onto a different-progress inner image
    // is rejected.
    const std::vector<std::uint8_t> inner =
        sys.saveSnapshot(mixSeeds(ctx_fp, inj.admitted()));
    s.u64(inner.size());
    s.raw(inner.data(), inner.size());
    s.endSection();
    return frameSnapshot(s, sys.configFingerprint(), ctx_fp);
}

void
restoreServerSnapshot(System &sys, ArrivalInjector &inj,
                      std::vector<std::uint8_t> image, std::uint64_t ctx_fp)
{
    Deserializer d(std::move(image), sys.configFingerprint(), ctx_fp);
    d.beginSection(kTagArrival);
    const std::uint64_t admitted = d.u64();
    const std::uint64_t size = d.u64();
    d.checkCount(size, 1);
    std::vector<std::uint8_t> inner(size);
    if (size)
        d.raw(inner.data(), size);
    d.endSection();

    // Replay the admissions first — restoreSnapshot can only overwrite
    // scheduler state whose Program bindings already exist.
    inj.replayAdmissions(admitted);
    sys.restoreSnapshot(std::move(inner), mixSeeds(ctx_fp, admitted));
}

} // namespace mtrap

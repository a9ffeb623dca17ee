#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

SystemConfig
SystemConfig::forScheme(Scheme s, unsigned cores)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.core.defense = schemeCoreDefense(s);
    cfg.mem.cores = cores;
    cfg.mem.mt = schemeMtConfig(s);
    return cfg;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), root_("system")
{
    if (cfg_.cores == 0)
        fatal("system: need at least one core");
    MemSystemParams mp = cfg_.mem;
    mp.cores = cfg_.cores;
    mem_ = std::make_unique<MemSystem>(mp, &root_);
    for (CoreId c = 0; c < cfg_.cores; ++c)
        cores_.push_back(std::make_unique<Core>(c, cfg_.core, mem_.get(),
                                                &root_));
}

void
System::loadWorkload(const Workload &w)
{
    if (w.threads() > numCores())
        fatal("workload %s needs %u cores, system has %u",
              w.name.c_str(), w.threads(), numCores());
    if (w.init)
        w.init(*mem_);
    for (unsigned t = 0; t < w.threads(); ++t) {
        ArchContext ctx;
        ctx.program = &w.threadPrograms[t];
        ctx.asid = w.asid;
        ctx.pc = w.threadPrograms[t].entry;
        cores_[t]->setContext(ctx);
    }
}

void
System::run(std::uint64_t max_commits_per_core)
{
    std::vector<std::uint64_t> targets;
    targets.reserve(numCores());
    for (const auto &c : cores_)
        targets.push_back(c->committedCount() + max_commits_per_core);
    runTo(targets);
}

void
System::runTo(const std::vector<std::uint64_t> &targets)
{
    if (targets.size() != numCores())
        fatal("runTo: %zu targets for %u cores", targets.size(),
              numCores());

    // Single-core fast path: no interleaving decisions to make, so skip
    // the scheduling structure entirely.
    if (numCores() == 1) {
        cores_[0]->stepLoop(targets[0]);
        return;
    }

    // Multi-core: keep the active cores in a flat array and pick the
    // one with the lexicographically smallest (front-end clock, core
    // id) — exactly the core the historical per-step linear scan chose,
    // so the interleaving (and every figure table) is unchanged. With a
    // handful of cores a fused min/second-min scan beats any heap, and
    // the scan only reruns when leadership changes: the leader is
    // epoch-batched (stepped repeatedly) until its clock passes the
    // runner-up's, which is observationally identical to re-scanning
    // per step.
    struct Entry
    {
        Cycle now;
        unsigned idx;
        Core *core;
        std::uint64_t target;

        bool operator<(const Entry &o) const
        {
            return now != o.now ? now < o.now : idx < o.idx;
        }
    };

    std::vector<Entry> act;
    act.reserve(numCores());
    for (unsigned c = 0; c < numCores(); ++c) {
        Core &core = *cores_[c];
        if (!core.halted() && core.committedCount() < targets[c])
            act.push_back(Entry{core.now(), c, &core, targets[c]});
    }

    while (!act.empty()) {
        // One pass: leader (min) and runner-up (second-min).
        std::size_t mi = 0, si = act.size();
        for (std::size_t i = 1; i < act.size(); ++i) {
            if (act[i] < act[mi]) {
                si = mi;
                mi = i;
            } else if (si == act.size() || act[i] < act[si]) {
                si = i;
            }
        }

        Entry &top = act[mi];
        const bool has_second = si != act.size();
        const bool active = top.core->stepEpoch(
            top.target, has_second, has_second ? act[si].now : 0,
            has_second ? top.idx < act[si].idx : false);

        if (active) {
            top.now = top.core->now();
        } else {
            act[mi] = act.back();
            act.pop_back();
        }
    }
}

Scheduler &
System::attachScheduler(const SchedParams &params)
{
    if (sched_)
        fatal("system: scheduler already attached");
    std::vector<Core *> cores;
    cores.reserve(cores_.size());
    for (auto &c : cores_)
        cores.push_back(c.get());
    sched_ = std::make_unique<Scheduler>(std::move(cores), params);
    if (tracer_)
        sched_->setTracer(tracer_.get());
    return *sched_;
}

Tracer &
System::attachTracer(const TraceParams &params)
{
    if (tracer_)
        fatal("system: tracer already attached");
    tracer_ = std::make_unique<Tracer>(numCores(), params, &root_);
    for (auto &c : cores_)
        c->setTracer(tracer_.get());
    mem_->setTracer(tracer_.get());
    if (sched_)
        sched_->setTracer(tracer_.get());
    return *tracer_;
}

JobId
System::addScheduledWorkload(const Workload &w)
{
    return addScheduledWorkload(w, JobAdmit{});
}

JobId
System::addScheduledWorkload(const Workload &w, const JobAdmit &admit)
{
    if (!sched_)
        fatal("system: attachScheduler before addScheduledWorkload");
    if (w.threads() > numCores())
        fatal("workload %s needs %u cores, system has %u",
              w.name.c_str(), w.threads(), numCores());
    if (w.init)
        w.init(*mem_);
    schedJobs_.push_back(std::make_unique<Workload>(w));
    const Workload &owned = *schedJobs_.back();
    std::vector<const Program *> programs;
    programs.reserve(owned.threads());
    for (const Program &p : owned.threadPrograms)
        programs.push_back(&p);
    const JobId job = sched_->addJob(programs, w.asid, admit);
    if (tracer_)
        tracer_->setJobLabel(job, owned.name);
    return job;
}

std::uint64_t
System::runScheduled(std::uint64_t total_commits)
{
    if (!sched_)
        fatal("system: attachScheduler before runScheduled");
    return sched_->run(total_commits);
}

void
System::drainAll()
{
    for (auto &c : cores_)
        c->drain();
}

Cycle
System::maxCommitCycle() const
{
    Cycle m = 0;
    for (const auto &c : cores_)
        m = std::max(m, c->lastCommitCycle());
    return m;
}

// --------------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------------

namespace
{

void
mixCacheParams(Fingerprint &fp, const CacheParams &p)
{
    fp.mix(p.name.str());
    fp.mix(p.sizeBytes);
    fp.mix(p.assoc);
    fp.mix(p.hitLatency);
    fp.mix(p.mshrs);
}

void
mixTlbParams(Fingerprint &fp, const TlbParams &p)
{
    fp.mix(p.name.str());
    fp.mix(p.entries);
}

} // namespace

std::uint64_t
System::configFingerprint() const
{
    Fingerprint fp;
    fp.mix(cfg_.cores);

    const CoreParams &cp = cfg_.core;
    fp.mix(cp.fetchWidth);
    fp.mix(cp.commitWidth);
    fp.mix(cp.robSize);
    fp.mix(cp.lqSize);
    fp.mix(cp.sqSize);
    fp.mix(cp.intAlus);
    fp.mix(cp.fpAlus);
    fp.mix(cp.mulDivs);
    fp.mix(cp.memPorts);
    fp.mix(cp.dispatchLatency);
    fp.mix(cp.redirectPenalty);
    fp.mix(cp.contextSwitchCost);
    fp.mix(static_cast<std::uint64_t>(cp.defense));
    fp.mix(cp.bpred.localEntries);
    fp.mix(cp.bpred.localHistoryBits);
    fp.mix(cp.bpred.globalEntries);
    fp.mix(cp.bpred.chooserEntries);
    fp.mix(cp.bpred.btbEntries);
    fp.mix(cp.bpred.rasEntries);

    const MemSystemParams &mp = cfg_.mem;
    fp.mix(mp.cores);
    mixCacheParams(fp, mp.l1d);
    mixCacheParams(fp, mp.l1i);
    mixCacheParams(fp, mp.l2);
    mixTlbParams(fp, mp.dtlb);
    mixTlbParams(fp, mp.itlb);
    fp.mix(mp.bus.transactionLatency);
    fp.mix(mp.bus.remoteSupplyLatency);
    fp.mix(mp.mem.rowHitLatency);
    fp.mix(mp.mem.rowMissLatency);
    fp.mix(mp.mem.banks);
    fp.mix(mp.mem.rowBytes);
    fp.mix(mp.prefetcher.tableEntries);
    fp.mix(mp.prefetcher.confidenceThreshold);
    fp.mix(mp.prefetcher.confidenceMax);
    fp.mix(mp.prefetcher.degree);
    fp.mix(mp.l2PrefetcherEnabled ? 1 : 0);

    const MuonTrapConfig &mt = mp.mt;
    fp.mix(mt.enabled ? 1 : 0);
    fp.mix(mt.protectData ? 1 : 0);
    fp.mix(mt.protectCoherence ? 1 : 0);
    fp.mix(mt.instFilter ? 1 : 0);
    fp.mix(mt.tlbFilter ? 1 : 0);
    fp.mix(mt.commitPrefetch ? 1 : 0);
    fp.mix(mt.clearOnMisspec ? 1 : 0);
    fp.mix(mt.parallelL0L1 ? 1 : 0);
    mixCacheParams(fp, mt.dataParams);
    mixCacheParams(fp, mt.instParams);
    fp.mix(mt.filterTlbEntries);

    return fp.value();
}

std::vector<std::uint8_t>
System::saveSnapshot(std::uint64_t ctx_fp) const
{
    Serializer s;

    s.beginSection(kTagMemSystem);
    mem_->saveState(s);
    s.endSection();

    for (const auto &c : cores_) {
        s.beginSection(kTagCore);
        c->saveState(s);
        s.endSection();
    }

    if (sched_) {
        s.beginSection(kTagScheduler);
        sched_->saveState(s);
        s.endSection();
    }

    if (tracer_) {
        s.beginSection(kTagTracer);
        tracer_->saveState(s);
        s.endSection();
    }

    // Every stat sheet in the tree, pre-order. The walk is a pure
    // function of the construction sequence, so save and restore see
    // the same group list in the same order.
    s.beginSection(kTagStats);
    std::uint64_t groups = 0;
    root_.forEachGroup([&](const StatGroup &) { ++groups; });
    s.u64(groups);
    root_.forEachGroup([&](const StatGroup &g) {
        s.raw(g.sheet(), StatGroup::kSheetWords * sizeof(std::uint64_t));
    });
    s.endSection();

    return frameSnapshot(s, configFingerprint(), ctx_fp);
}

void
System::saveSnapshotFile(const std::string &path,
                         std::uint64_t ctx_fp) const
{
    writeSnapshotFile(path, saveSnapshot(ctx_fp));
}

void
System::restoreSnapshot(std::vector<std::uint8_t> image,
                        std::uint64_t ctx_fp)
{
    Deserializer d(std::move(image), configFingerprint(), ctx_fp);

    d.beginSection(kTagMemSystem);
    mem_->restoreState(d);
    d.endSection();

    for (auto &c : cores_) {
        d.beginSection(kTagCore);
        c->restoreState(d);
        d.endSection();
    }

    if (sched_) {
        d.beginSection(kTagScheduler);
        sched_->restoreState(d);
        d.endSection();
    }

    if (tracer_) {
        d.beginSection(kTagTracer);
        tracer_->restoreState(d);
        d.endSection();
    }

    d.beginSection(kTagStats);
    std::uint64_t groups = 0;
    root_.forEachGroup([&](const StatGroup &) { ++groups; });
    if (d.u64() != groups)
        throw SnapshotError("stat group count mismatch");
    root_.forEachGroup([&](StatGroup &g) {
        d.raw(g.sheet(), StatGroup::kSheetWords * sizeof(std::uint64_t));
    });
    d.endSection();

    if (d.peekTag() != kTagEnd)
        throw SnapshotError("unexpected trailing section");
}

} // namespace mtrap

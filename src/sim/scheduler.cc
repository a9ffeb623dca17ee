#include "sim/scheduler.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

Scheduler::Scheduler(std::vector<Core *> cores, const SchedParams &params)
    : params_(params)
{
    if (cores.empty())
        fatal("scheduler: no cores");
    if (params.quantum == 0)
        fatal("scheduler: zero quantum");
    cores_.reserve(cores.size());
    for (Core *c : cores) {
        if (!c)
            fatal("scheduler: null core");
        CoreState cs;
        cs.core = c;
        cores_.push_back(std::move(cs));
    }
}

std::vector<CoreId>
Scheduler::leastLoadedCores(std::size_t n) const
{
    std::vector<CoreId> ids(cores_.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(), [this](CoreId a, CoreId b) {
        return cores_[a].queue.size() < cores_[b].queue.size();
    });
    ids.resize(n);
    std::sort(ids.begin(), ids.end());
    return ids;
}

JobId
Scheduler::addTask(const Program *program, Asid asid)
{
    return addJob({program}, asid);
}

JobId
Scheduler::addJob(const std::vector<const Program *> &threads, Asid asid)
{
    return addJob(threads, asid, JobAdmit{});
}

JobId
Scheduler::addJob(const std::vector<const Program *> &threads, Asid asid,
                  const JobAdmit &admit)
{
    if (threads.empty())
        fatal("scheduler: job with no threads");
    if (threads.size() > cores_.size())
        fatal("scheduler: job needs %zu cores, scheduler has %zu",
              threads.size(), cores_.size());
    if (admit.weight == 0)
        fatal("scheduler: job weight must be >= 1");

    const JobId job = static_cast<JobId>(jobFirstTask_.size());
    jobFirstTask_.push_back(tasks_.size());
    jobThreads_.push_back(static_cast<unsigned>(threads.size()));

    const std::vector<CoreId> chosen = leastLoadedCores(threads.size());

    // Mid-run admission onto an idle core: the core's clock may be
    // arbitrarily far behind the arrival cycle (it parked long ago).
    // Advance it so the job cannot be scheduled before it arrived —
    // cores with live work are already at or past the arrival cycle
    // (admission happens from the minimum-clock running core).
    if (admit.arrivalCycle) {
        for (CoreId c : chosen) {
            CoreState &cs = cores_[c];
            if (runnableCount(cs) == 0
                && cs.core->now() < admit.arrivalCycle)
                cs.core->advanceClockTo(admit.arrivalCycle);
        }
    }

    // Gang alignment: pad the chosen cores' queues to a common length so
    // every member lands at the same queue index and therefore runs in
    // the same slots (the holes become idle slots).
    if (params_.gang && threads.size() > 1) {
        std::size_t longest = 0;
        for (CoreId c : chosen)
            longest = std::max(longest, cores_[c].queue.size());
        for (CoreId c : chosen)
            cores_[c].queue.resize(longest, kIdle);
    }

    for (unsigned t = 0; t < threads.size(); ++t) {
        Task task;
        task.ctx.program = threads[t];
        task.ctx.asid = asid;
        task.ctx.pc = threads[t]->entry;
        task.job = job;
        task.thread = t;
        task.gangMember = threads.size() > 1;
        task.core = chosen[t];
        task.lastCore = chosen[t];
        task.serviceLimit = admit.serviceLimit;
        task.arrivalCycle = admit.arrivalCycle;
        task.deadline = admit.deadline;
        task.weight = admit.weight;
        task.sleepPeriodCommits = admit.sleepPeriodCommits;
        task.sleepDurationCycles = admit.sleepDurationCycles;
        // Weighted quanta: weight w = w consecutive queue entries, so
        // the task owns w of every round's slots. Consecutive placement
        // keeps the copies contiguous (fewer switches) and keeps gang
        // members' indices aligned (all members share one weight).
        for (unsigned w = 0; w < admit.weight; ++w)
            cores_[chosen[t]].queue.push_back(
                static_cast<int>(tasks_.size()));
        cores_[chosen[t]].parked = false;
        tasks_.push_back(std::move(task));
    }

    if ((openSystem_ || admit.arrivalCycle) && tracer_)
        tracer_->recordSched(
            chosen[0], TraceEventKind::SchedArrive, admit.arrivalCycle,
            job, static_cast<std::uint32_t>(threads.size()));
    return job;
}

void
Scheduler::setArrivalSource(ArrivalSource *arrivals)
{
    arrivals_ = arrivals;
    openSystem_ = arrivals != nullptr;
}

std::vector<CoreId>
Scheduler::placement(JobId job) const
{
    if (job >= jobFirstTask_.size())
        fatal("scheduler: unknown job %u", job);
    std::vector<CoreId> cores;
    for (unsigned t = 0; t < jobThreads_[job]; ++t)
        cores.push_back(tasks_[jobFirstTask_[job] + t].core);
    return cores;
}

void
Scheduler::saveState(Serializer &s) const
{
    s.u64(tasks_.size());
    for (const Task &t : tasks_) {
        saveArchContext(s, t.ctx);
        s.b(t.started);
        s.u32(t.core);
        s.u64(t.serviceLimit);
        s.u64(t.committed);
        s.u64(t.arrivalCycle);
        s.u64(t.firstRunCycle);
        s.u64(t.finishCycle);
        s.u64(t.deadline);
        s.u32(t.weight);
        s.u64(t.sleepPeriodCommits);
        s.u64(t.sleepDurationCycles);
        s.u64(t.commitsTowardSleep);
        s.u64(t.sleepUntil);
        s.u32(t.lastCore);
    }
    for (const CoreState &cs : cores_) {
        s.vec(cs.queue);
        s.i64(cs.resident);
        s.u64(cs.done);
        s.b(cs.parked);
        s.u64(cs.busyCycles);
    }
    s.i64(resumeCore_);
    s.u64(switches_);
    s.u64(migrations_);
    s.u64(idleSlots_);
}

void
Scheduler::restoreState(Deserializer &d)
{
    const std::uint64_t nt = d.u64();
    if (nt != tasks_.size())
        throw SnapshotError("scheduled task count mismatch");
    for (Task &t : tasks_) {
        restoreArchContext(d, t.ctx); // keeps t.ctx.program
        t.started = d.b();
        t.core = d.u32();
        if (t.core >= cores_.size())
            throw SnapshotError("task placed on nonexistent core");
        t.serviceLimit = d.u64();
        t.committed = d.u64();
        t.arrivalCycle = d.u64();
        t.firstRunCycle = d.u64();
        t.finishCycle = d.u64();
        t.deadline = d.u64();
        t.weight = d.u32();
        if (t.weight == 0)
            throw SnapshotError("task weight must be >= 1");
        t.sleepPeriodCommits = d.u64();
        t.sleepDurationCycles = d.u64();
        t.commitsTowardSleep = d.u64();
        t.sleepUntil = d.u64();
        t.lastCore = d.u32();
        if (t.lastCore >= cores_.size())
            throw SnapshotError("task last core out of range");
    }
    for (CoreState &cs : cores_) {
        d.vec(cs.queue);
        for (int e : cs.queue)
            if (e != kIdle &&
                (e < 0 || static_cast<std::size_t>(e) >= tasks_.size()))
                throw SnapshotError("run-queue entry out of range");
        const std::int64_t res = d.i64();
        if (res < -1 || res >= static_cast<std::int64_t>(tasks_.size()))
            throw SnapshotError("resident task out of range");
        cs.resident = static_cast<int>(res);
        cs.done = d.u64();
        cs.parked = d.b();
        cs.busyCycles = d.u64();
    }
    const std::int64_t rc = d.i64();
    if (rc < -1 || rc >= static_cast<std::int64_t>(cores_.size()))
        throw SnapshotError("resume core out of range");
    resumeCore_ = static_cast<int>(rc);
    switches_ = d.u64();
    migrations_ = d.u64();
    idleSlots_ = d.u64();

    // The cores restored their contexts minus the Program pointer;
    // re-attach each resident task's program (installed by the
    // replayed admission) and re-bind its decoded stream.
    for (CoreState &cs : cores_)
        if (cs.resident >= 0)
            cs.core->restoreProgramBinding(tasks_[cs.resident].ctx.program);
}

std::vector<JobRecord>
Scheduler::jobRecords() const
{
    std::vector<JobRecord> out;
    out.reserve(jobFirstTask_.size());
    for (JobId j = 0; j < jobFirstTask_.size(); ++j) {
        JobRecord r;
        r.job = j;
        const Task &t0 = tasks_[jobFirstTask_[j]];
        r.arrival = t0.arrivalCycle;
        r.deadline = t0.deadline;
        r.weight = t0.weight;
        bool all_done = true;
        // A gang's first-run is its earliest member install; its finish
        // is the last member's completion.
        for (unsigned t = 0; t < jobThreads_[j]; ++t) {
            const Task &tk = tasks_[jobFirstTask_[j] + t];
            r.committed += tk.committed;
            all_done &= tk.ctx.halted;
            if (tk.started) {
                r.firstRun = r.started
                    ? std::min(r.firstRun, tk.firstRunCycle)
                    : tk.firstRunCycle;
                r.started = true;
            }
            r.finish = std::max(r.finish, tk.finishCycle);
        }
        r.done = all_done;
        if (!all_done)
            r.finish = 0;
        out.push_back(r);
    }
    return out;
}

bool
Scheduler::allHalted() const
{
    for (const auto &t : tasks_)
        if (!t.ctx.halted)
            return false;
    return true;
}

unsigned
Scheduler::runnableCount(const CoreState &cs) const
{
    // Counts *distinct* runnable tasks: a weight-w task holds w queue
    // entries but is one unit of work (counting entries would let the
    // load balancer ping-pong a lone weighted task between two idle
    // cores forever). Queues are a handful of entries, so the quadratic
    // duplicate scan is noise.
    unsigned n = 0;
    for (std::size_t i = 0; i < cs.queue.size(); ++i) {
        const int e = cs.queue[i];
        if (e == kIdle || tasks_[e].ctx.halted)
            continue;
        bool dup = false;
        for (std::size_t j = 0; j < i; ++j)
            dup |= (cs.queue[j] == e);
        if (!dup)
            ++n;
    }
    return n;
}

Scheduler::Pick
Scheduler::designate(const CoreState &cs) const
{
    Pick p;
    if (cs.queue.empty() || runnableCount(cs) == 0) {
        p.none = true;
        return p;
    }
    const std::size_t len = cs.queue.size();
    const std::size_t start =
        static_cast<std::size_t>(cs.core->now() / params_.quantum) % len;
    if (cs.queue[start] == kIdle) {
        p.idle = true;
        return p;
    }
    // Fall forward past halted tasks, holes and sleeping (IO-wait)
    // tasks to the next ready entry (classic round-robin degradation
    // once tasks finish).
    const Cycle now = cs.core->now();
    for (std::size_t i = 0; i < len; ++i) {
        const int e = cs.queue[(start + i) % len];
        if (e != kIdle && !tasks_[e].ctx.halted
            && tasks_[e].sleepUntil <= now) {
            p.task = e;
            return p;
        }
    }
    // Runnable entries exist (the count above) but every one is asleep:
    // idle the slot so the clock advances towards the earliest wake.
    p.idle = true;
    return p;
}

void
Scheduler::installOn(CoreState &cs, int task)
{
    if (cs.resident == task)
        return;
    if (!tasks_[task].started)
        tasks_[task].firstRunCycle = cs.core->now();
    if (cs.resident >= 0) {
        // A force-retired task (service limit) already carries its
        // halted context; re-saving would resurrect it from the still
        // live core state.
        if (!tasks_[cs.resident].ctx.halted)
            tasks_[cs.resident].ctx = cs.core->saveContext();
        cs.core->contextSwitch(tasks_[task].ctx);
        ++switches_;
    } else {
        // Virgin core: nothing ran here, so there is no prior-domain
        // state to flush; plain installation, as System::loadWorkload.
        cs.core->setContext(tasks_[task].ctx);
    }
    tasks_[task].started = true;
    tasks_[task].lastCore = static_cast<CoreId>(&cs - cores_.data());
    cs.resident = task;
}

void
Scheduler::idleSkip(CoreState &cs)
{
    const Cycle slot = cs.core->now() / params_.quantum;
    cs.core->advanceClockTo((slot + 1) * params_.quantum);
    ++idleSlots_;
}

void
Scheduler::rebalance()
{
    if (!params_.migrate)
        return;
    while (true) {
        // A starving core: nothing runnable queued.
        int target = -1;
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            if (runnableCount(cores_[c]) == 0) {
                target = static_cast<int>(c);
                break;
            }
        }
        if (target < 0)
            return;

        // Donor: the most loaded core with a movable (runnable,
        // single-threaded, not resident) task. Gang members stay
        // pinned so co-scheduling survives load balancing. With
        // SchedParams::affinity, a candidate that last executed on the
        // starving core wins over the default youngest-queued one: its
        // L1/filter footprint may still be warm there.
        int donor = -1, candidate = -1;
        unsigned donorLoad = 1; // need at least 2 runnable to donate
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            const CoreState &cs = cores_[c];
            const unsigned load = runnableCount(cs);
            if (load <= donorLoad)
                continue;
            int cand = -1, affine = -1;
            for (std::size_t i = cs.queue.size(); i-- > 0;) {
                const int e = cs.queue[i];
                if (e != kIdle && !tasks_[e].ctx.halted
                    && !tasks_[e].gangMember && e != cs.resident) {
                    if (cand < 0)
                        cand = static_cast<int>(i);
                    if (params_.affinity && affine < 0
                        && tasks_[e].started
                        && tasks_[e].lastCore
                               == static_cast<CoreId>(target))
                        affine = static_cast<int>(i);
                }
            }
            if (affine >= 0)
                cand = affine;
            if (cand >= 0) {
                donor = static_cast<int>(c);
                donorLoad = load;
                candidate = cand;
            }
        }
        if (donor < 0)
            return;

        CoreState &from = cores_[donor];
        const int task = from.queue[candidate];
        bool donorHasGang = false;
        for (int e : from.queue)
            donorHasGang |= (e != kIdle && tasks_[e].gangMember);
        // Move *every* queue entry of the task: a weight-w task holds w
        // copies, and splitting them across cores would let two cores
        // install the same context.
        unsigned copies = 0;
        if (donorHasGang) {
            // Keep the donor queue's length (and so its gang members'
            // slot alignment) intact: leave holes.
            for (int &e : from.queue) {
                if (e == task) {
                    e = kIdle;
                    ++copies;
                }
            }
        } else {
            for (std::size_t i = from.queue.size(); i-- > 0;) {
                if (from.queue[i] == task) {
                    from.queue.erase(from.queue.begin()
                                     + static_cast<std::ptrdiff_t>(i));
                    ++copies;
                }
            }
        }

        CoreState &to = cores_[target];
        for (unsigned i = 0; i < copies; ++i)
            to.queue.push_back(task);
        to.parked = false;
        tasks_[task].core = static_cast<CoreId>(target);
        ++migrations_;
        if (tracer_)
            tracer_->recordSched(static_cast<CoreId>(target),
                                 TraceEventKind::SchedMigrate,
                                 to.core->now(), tasks_[task].job,
                                 static_cast<std::uint32_t>(donor));
    }
}

int
Scheduler::pickCore() const
{
    if (resumeCore_ >= 0)
        return resumeCore_;
    int best = -1;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const CoreState &cs = cores_[c];
        if (cs.parked || cs.queue.empty())
            continue;
        if (best < 0 || cs.core->now() < cores_[best].core->now())
            best = static_cast<int>(c);
    }
    return best;
}

std::uint64_t
Scheduler::run(std::uint64_t total_commits)
{
    if (tasks_.empty() && !arrivals_)
        fatal("scheduler: no tasks");

    std::uint64_t done = 0;
    while (done < total_commits) {
        const int c = pickCore();
        if (c < 0) {
            // Nothing runnable anywhere. An open system idles until the
            // next arrival: fast-forward every core to that cycle and
            // admit (the idle gap is real time the report sees in the
            // makespan, not simulated instruction by instruction).
            if (arrivals_) {
                const Cycle at = arrivals_->nextArrivalCycle();
                if (at) {
                    for (CoreState &cs : cores_)
                        if (cs.core->now() < at)
                            cs.core->advanceClockTo(at);
                    arrivals_->admitUpTo(at);
                    continue;
                }
            }
            break; // everything halted (or unreachable)
        }
        CoreState &cs = cores_[static_cast<std::size_t>(c)];

        // Scheduling decisions only at grid points of this core's
        // commit stream; a resumed mid-chunk core skips straight to
        // execution so external budget chunking can't move decisions.
        if (cs.done % kChunk == 0) {
            // Admit arrivals due by this core's clock. pickCore chose
            // the minimum clock over live cores, so the admission point
            // is a deterministic function of simulation state alone —
            // external run() chunking cannot move it.
            if (arrivals_) {
                const Cycle na = arrivals_->nextArrivalCycle();
                if (na && na <= cs.core->now())
                    arrivals_->admitUpTo(cs.core->now());
            }
            const Pick pick = designate(cs);
            if (tracer_)
                recordDecision(cs, static_cast<CoreId>(c), pick);
            if (pick.none) {
                cs.parked = true;
                continue;
            }
            if (pick.idle) {
                idleSkip(cs);
                continue;
            }
            // Install and run immediately (rather than re-selecting):
            // the switch cost already advanced this core's clock, and
            // running at least one chunk before the next decision
            // guarantees forward progress for any quantum, including
            // quanta shorter than the context-switch cost.
            if (pick.task != cs.resident)
                installOn(cs, pick.task);
        }

        Task &t = tasks_[cs.resident];
        std::uint64_t n = std::min(
            total_commits - done, kChunk - cs.done % kChunk);
        // Cap the chunk at the remaining service demand so completion
        // lands on the exact commit, independent of the grid.
        if (t.serviceLimit)
            n = std::min(n, t.serviceLimit - t.committed);
        const Cycle busy_from = cs.core->now();
        const std::uint64_t did = cs.core->run(n);
        cs.busyCycles += cs.core->now() - busy_from;
        done += did;
        cs.done += did;
        t.committed += did;

        bool complete = cs.core->halted();
        if (complete) {
            // Record the final state; snap to the next grid point so
            // the next visit is a scheduling decision.
            t.ctx = cs.core->saveContext();
        } else if (t.serviceLimit && t.committed >= t.serviceLimit) {
            // Service demand met: retire the job. The program is still
            // architecturally live, so force the halt into the saved
            // context (installOn's halted guard keeps it retired).
            t.ctx = cs.core->saveContext();
            t.ctx.halted = true;
            complete = true;
        }

        if (complete) {
            t.finishCycle = cs.core->now();
            if ((openSystem_ || t.serviceLimit || t.arrivalCycle)
                && tracer_)
                tracer_->recordSched(
                    static_cast<CoreId>(c),
                    TraceEventKind::SchedComplete, cs.core->now(),
                    t.job, t.thread);
            cs.done += (kChunk - cs.done % kChunk) % kChunk;
            resumeCore_ = -1;
            rebalance();
        } else {
            // IO-wait emulation: after each sleep period the task
            // blocks; designation skips it until the wake cycle (a
            // mid-chunk resume may run it a little longer first, which
            // is deterministic and chunking-invariant either way).
            if (t.sleepPeriodCommits) {
                t.commitsTowardSleep += did;
                if (t.commitsTowardSleep >= t.sleepPeriodCommits) {
                    t.commitsTowardSleep -= t.sleepPeriodCommits;
                    t.sleepUntil =
                        cs.core->now() + t.sleepDurationCycles;
                }
            }
            resumeCore_ = (cs.done % kChunk != 0) ? c : -1;
        }
    }
    return done;
}

void
Scheduler::recordDecision(const CoreState &cs, CoreId core,
                          const Pick &pick)
{
    const Cycle when = cs.core->now();
    if (pick.none) {
        tracer_->recordSched(core, TraceEventKind::SchedPark, when);
    } else if (pick.idle) {
        tracer_->recordSched(core, TraceEventKind::SchedIdle, when);
    } else {
        tracer_->recordSched(core, TraceEventKind::SchedRun, when,
                             tasks_[pick.task].job,
                             tasks_[pick.task].thread);
    }
}

} // namespace mtrap

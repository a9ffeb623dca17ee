/**
 * @file
 * Multi-core gang scheduler: per-core run queues multiplexing software
 * contexts (processes) onto the system's cores, with quantum-based time
 * slicing, gang placement for multi-threaded jobs, and load-balanced
 * migration of single-threaded tasks onto cores that run dry.
 *
 * Every context switch and migration is routed through
 * Core::contextSwitch, which performs the full defence hygiene for the
 * active scheme: the MuonTrap filter flush (MemIface::onContextSwitch),
 * the InvisiSpec speculative-buffer clear (same hook), and the STT
 * taint-timestamp clear (Core::setContext resets the taint array). The
 * paper's §6 time-sharing cost discussion is exactly the cost this
 * machinery charges.
 *
 * Time slices are *absolute*: the task designated to run on core c
 * during slot s = now/quantum is queue[s % queue.size()]. Because gang
 * admission pads its cores' queues to a common length and appends every
 * gang member at the same queue index, gang members are co-scheduled
 * (they occupy the same slot on each of their cores) without any
 * cross-core synchronisation. Queue holes left by the padding are idle
 * slots: the core skips to the next slot boundary, modelling the
 * fragmentation cost real gang schedulers pay.
 */

#ifndef MTRAP_SIM_SCHEDULER_HH
#define MTRAP_SIM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "isa/program.hh"
#include "trace/trace.hh"

namespace mtrap
{

/** Identifies one scheduled job (a gang of one or more threads). */
using JobId = unsigned;

/** Scheduling policy knobs. */
struct SchedParams
{
    /** Time-slice length in cycles. */
    Cycle quantum = 50'000;
    /** Co-schedule multi-threaded jobs (slot-aligned gang placement).
     *  When false, every thread is placed independently. */
    bool gang = true;
    /** Migrate single-threaded tasks onto cores whose run queues have
     *  no runnable work left (gang members stay pinned). */
    bool migrate = true;
    /**
     * Cache-affinity-aware migration: when a starving core pulls work,
     * prefer a task that last ran on that core (its L1/filter state may
     * still be warm) over the default youngest-queued candidate. Off by
     * default — the legacy donor choice is part of the pinned golden
     * behaviour.
     */
    bool affinity = false;
};

/**
 * Open-system admission attributes for one job. The default-constructed
 * value reproduces closed-batch admission exactly (no arrival stamp, no
 * service limit, weight 1, no deadline, no IO-wait), so every legacy
 * call path is untouched.
 */
struct JobAdmit
{
    /** Cycle the job arrived (0 = present since construction). Admission
     *  onto an idle core advances that core's clock here first, so a
     *  job can never run before it arrived. */
    Cycle arrivalCycle = 0;
    /** Service demand in committed instructions: the job completes (is
     *  force-retired) once it has committed this many. 0 = run to the
     *  program's natural halt. */
    std::uint64_t serviceLimit = 0;
    /** Absolute completion deadline in cycles (0 = none). Purely an
     *  accounting attribute: the scheduler reports misses, it does not
     *  prioritise by deadline. */
    Cycle deadline = 0;
    /** Weighted quantum share: each thread gets `weight` consecutive
     *  run-queue entries, i.e. a weight-2 job owns twice the slot share
     *  of a weight-1 job on the same core. Must be >= 1. */
    unsigned weight = 1;
    /** IO-wait emulation: after every `sleepPeriodCommits` committed
     *  instructions the task blocks (is skipped by designation) for
     *  `sleepDurationCycles`, then requeues as ready. 0 = never. */
    std::uint64_t sleepPeriodCommits = 0;
    Cycle sleepDurationCycles = 0;
};

/**
 * Feed of mid-run job arrivals (see src/sim/arrival.*). The scheduler
 * polls it at decision-grid points — and when the whole machine runs
 * dry — so admission lands at deterministic, chunking-invariant points
 * of the committed-instruction stream.
 */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;
    /** Cycle of the earliest not-yet-admitted arrival, 0 once drained. */
    virtual Cycle nextArrivalCycle() const = 0;
    /** Admit every arrival at or before `now` (calls back into
     *  Scheduler::addJob, usually via System::addScheduledWorkload).
     *  Returns the number of jobs admitted. */
    virtual unsigned admitUpTo(Cycle now) = 0;
};

/** Per-job lifecycle accounting for open-system reporting. */
struct JobRecord
{
    JobId job = 0;
    Cycle arrival = 0;  ///< admission cycle (0 for batch jobs)
    Cycle firstRun = 0; ///< cycle the job was first installed on a core
    Cycle finish = 0;   ///< completion cycle (0 = still live)
    Cycle deadline = 0; ///< 0 = none
    std::uint64_t committed = 0;
    unsigned weight = 1;
    bool started = false;
    bool done = false;
};

/**
 * Gang scheduler over one or more cores.
 *
 * Determinism contract: scheduling decisions happen only at fixed
 * points of each core's committed-instruction stream (every kChunk
 * commits), selection interleaves cores in (clock, id) order, and an
 * interrupted chunk is resumed before any new decision — so
 * run(a); run(b) is indistinguishable from run(a + b) at the stats
 * level, and placement depends only on admission order.
 */
class Scheduler
{
  public:
    Scheduler(std::vector<Core *> cores, const SchedParams &params);

    /** Add a single-threaded process on the least-loaded core (restarts
     *  at the program entry when first run). Returns its job id. */
    JobId addTask(const Program *program, Asid asid);

    /**
     * Add a job whose threads[] run as a gang: each thread is pinned to
     * its own core, placed so all members share the same slot index
     * (co-scheduled) when gang scheduling is enabled.
     */
    JobId addJob(const std::vector<const Program *> &threads, Asid asid);

    /**
     * Open-system admission: like addJob, plus the arrival stamp,
     * service limit, deadline, weight and IO-wait attributes of
     * `admit`. Safe to call mid-run from an ArrivalSource callback (the
     * scheduler only polls arrivals at decision points).
     */
    JobId addJob(const std::vector<const Program *> &threads, Asid asid,
                 const JobAdmit &admit);

    /**
     * Attach a feed of mid-run arrivals. The scheduler polls it at
     * every decision-grid point (admitting arrivals due by the deciding
     * core's clock) and fast-forwards an entirely idle machine to the
     * next arrival instead of stopping. Caller keeps ownership; the
     * source must outlive the scheduler or be detached with nullptr.
     */
    void setArrivalSource(ArrivalSource *arrivals);

    std::size_t taskCount() const { return tasks_.size(); }

    /** Per-job lifecycle records (arrival / first-run / finish /
     *  committed), indexed by JobId. */
    std::vector<JobRecord> jobRecords() const;

    /** Cycles core `c` spent executing instructions (context-switch
     *  and idle-slot cycles excluded) — the occupancy numerator. */
    std::uint64_t busyCycles(CoreId c) const
    {
        return cores_.at(c).busyCycles;
    }

    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Core each thread of `job` was placed on (admission is
     *  deterministic, so this is reproducible run to run). */
    std::vector<CoreId> placement(JobId job) const;

    /**
     * Run until `total_commits` instructions have committed across all
     * tasks and cores, or every task has halted. Returns instructions
     * actually committed (exactly `total_commits` while runnable work
     * remains). Does not drain at return, so chunked calls compose.
     */
    std::uint64_t run(std::uint64_t total_commits);

    /** True once every task has halted. */
    bool allHalted() const;

    /** Context switches performed (including migration installs). */
    std::uint64_t switches() const { return switches_; }
    /** Tasks moved to another core's queue by load balancing. */
    std::uint64_t migrations() const { return migrations_; }
    /** Slots a core sat idle on a gang-padding hole. */
    std::uint64_t idleSlots() const { return idleSlots_; }

    /**
     * Checkpoint the scheduling state: per-task contexts (minus their
     * Program pointers — restore preserves the pointers the replayed
     * admission installed and re-binds resident tasks onto their
     * cores), per-core run queues / residency / decision-grid
     * counters and the mid-chunk resume point. Call restoreState only
     * after re-admitting the identical job set in the identical order
     * (the context fingerprint enforces this from the outside).
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

    /** Record every scheduling decision into `tracer`'s scheduler
     *  ring (null = recording off). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  private:
    /** Scheduling decisions fire every kChunk commits of a core's
     *  stream; chunk boundaries are independent of how callers split
     *  run() budgets (the chunked == monolithic property). */
    static constexpr std::uint64_t kChunk = 512;
    /** Run-queue hole from gang padding: the core idles this slot. */
    static constexpr int kIdle = -1;

    struct Task
    {
        ArchContext ctx;
        JobId job = 0;
        unsigned thread = 0;
        bool started = false;
        /** Gang members are pinned to their core (never migrated). */
        bool gangMember = false;
        CoreId core = 0;

        // Open-system attributes (defaults = closed-batch behaviour).
        std::uint64_t serviceLimit = 0;
        std::uint64_t committed = 0;
        Cycle arrivalCycle = 0;
        Cycle firstRunCycle = 0;
        Cycle finishCycle = 0;
        Cycle deadline = 0;
        unsigned weight = 1;
        std::uint64_t sleepPeriodCommits = 0;
        Cycle sleepDurationCycles = 0;
        std::uint64_t commitsTowardSleep = 0;
        /** Sleeping (IO-wait) until this cycle; 0 = awake. */
        Cycle sleepUntil = 0;
        /** Core this task last executed on (affinity migration). */
        CoreId lastCore = 0;
    };

    struct CoreState
    {
        Core *core = nullptr;
        /** Task indices (or kIdle holes), rotated by slot number. */
        std::vector<int> queue;
        /** Task currently installed on the core, or -1. */
        int resident = -1;
        /** Commits on this core since construction (decision grid). */
        std::uint64_t done = 0;
        /** No runnable entries; skip in selection until rebalanced. */
        bool parked = false;
        /** Cycles spent executing (occupancy numerator). */
        std::uint64_t busyCycles = 0;
    };

    /** Outcome of a scheduling decision on one core. */
    struct Pick
    {
        int task = -1;   ///< task to run (>= 0), else:
        bool idle = false;   ///< designated slot is a gang hole
        bool none = false;   ///< no runnable entry at all -> park
    };

    unsigned runnableCount(const CoreState &cs) const;
    Pick designate(const CoreState &cs) const;
    void installOn(CoreState &cs, int task);
    void idleSkip(CoreState &cs);
    void rebalance();
    int pickCore() const;
    std::vector<CoreId> leastLoadedCores(std::size_t n) const;

    SchedParams params_;
    std::vector<CoreState> cores_;
    std::vector<Task> tasks_;
    /** First thread-task index of each job (threads are contiguous). */
    std::vector<std::size_t> jobFirstTask_;
    std::vector<unsigned> jobThreads_;

    /** Core interrupted mid-chunk by budget exhaustion; resumed first
     *  on the next run() call so external chunking cannot perturb the
     *  decision grid. -1 = none. */
    int resumeCore_ = -1;

    /** Mid-run arrival feed (not owned, not serialized: the restore
     *  path re-attaches and replays its admissions). */
    ArrivalSource *arrivals_ = nullptr;
    /** True once an arrival source was attached: gates the open-system
     *  trace events so legacy traces stay byte-identical. */
    bool openSystem_ = false;

    std::uint64_t switches_ = 0;
    std::uint64_t migrations_ = 0;
    std::uint64_t idleSlots_ = 0;

    void recordDecision(const CoreState &cs, CoreId core,
                        const Pick &pick);

    Tracer *tracer_ = nullptr;
};

} // namespace mtrap

#endif // MTRAP_SIM_SCHEDULER_HH

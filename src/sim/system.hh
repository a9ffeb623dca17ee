/**
 * @file
 * Whole-system assembly: cores + memory system, configured per defence
 * scheme, with an interleaved multi-core run loop.
 */

#ifndef MTRAP_SIM_SYSTEM_HH
#define MTRAP_SIM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cpu/core.hh"
#include "defense/scheme.hh"
#include "sim/mem_system.hh"
#include "sim/scheduler.hh"
#include "trace/trace.hh"
#include "workload/kernels.hh"

namespace mtrap
{

/** Top-level configuration (defaults = paper Table 1, 4 cores). */
struct SystemConfig
{
    unsigned cores = 1;
    CoreParams core{};
    MemSystemParams mem{};

    /** Table-1 system under the given scheme. */
    static SystemConfig forScheme(Scheme s, unsigned cores = 1);
};

/**
 * A complete simulated machine.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    Core &core(CoreId c) { return *cores_.at(c); }
    MemSystem &mem() { return *mem_; }
    StatGroup &root() { return root_; }
    const SystemConfig &config() const { return cfg_; }

    /**
     * Install a workload: thread i runs on core i (fatal if the
     * workload has more threads than cores). Runs the workload's memory
     * initialiser.
     */
    void loadWorkload(const Workload &w);

    /**
     * Run every non-halted core for up to `max_commits_per_core` more
     * committed instructions, interleaved in global-cycle order so
     * coherence interactions are seen in a sensible order.
     */
    void run(std::uint64_t max_commits_per_core);

    /**
     * Like run(), but to an *absolute* committed-instruction target per
     * core (one entry per core). Because stepOne can retire a small
     * batch past a target, budget-relative chunking accumulates the
     * overshoot; absolute targets make a chunked measured phase land on
     * exactly the same final commit counts as a monolithic one (the
     * runner's interval stat sampling relies on this).
     */
    void runTo(const std::vector<std::uint64_t> &targets);

    /**
     * Attach a gang scheduler that owns every core: from here on the
     * scheduler decides which Core steps which Program. Workloads are
     * admitted with addScheduledWorkload and driven with runScheduled;
     * the direct loadWorkload/run pair must not be mixed in.
     */
    Scheduler &attachScheduler(const SchedParams &params = {});

    /** The attached scheduler, or nullptr. */
    Scheduler *scheduler() { return sched_.get(); }

    /**
     * Admit a workload to the scheduler as one job: its threads are
     * gang-placed across cores and time-share with every other admitted
     * job. Runs the workload's memory initialiser. Jobs keep their own
     * Workload::asid, so give concurrent jobs distinct asids. The
     * system stores its own copy of the workload (the scheduler holds
     * program pointers for the whole run), so temporaries are fine.
     */
    JobId addScheduledWorkload(const Workload &w);

    /** Open-system admission: like addScheduledWorkload plus the
     *  arrival stamp / service limit / deadline / weight / IO-wait
     *  attributes of `admit`. Called mid-run by an ArrivalSource. */
    JobId addScheduledWorkload(const Workload &w, const JobAdmit &admit);

    /** Run `total_commits` instructions across all scheduled jobs (see
     *  Scheduler::run). */
    std::uint64_t runScheduled(std::uint64_t total_commits);

    /**
     * Attach an event tracer and wire it into every hook site: cores
     * (context switches, squashes), the memory side (bus, MuonTrap
     * filters, spec buffers) and the scheduler if one is attached (or
     * attached later). Its recorded/dropped counters join the system
     * stat tree under "system.trace". Fatal if already attached.
     */
    Tracer &attachTracer(const TraceParams &params = {});

    /** The attached tracer, or nullptr. */
    Tracer *tracer() { return tracer_.get(); }

    /** Drain all cores' pipelines. */
    void drainAll();

    /** Largest commit cycle over all cores (the run's makespan). */
    Cycle maxCommitCycle() const;

    /** Reset all statistics (post-warmup). */
    void resetStats() { root_.resetAll(); }

    void dumpStats(std::ostream &os) { root_.dump(os); }

    /**
     * 64-bit digest of every configuration field. Snapshot headers
     * carry it; restore refuses an image taken under any other
     * configuration (warm microarchitectural state is meaningless —
     * and silently wrong — under different structural parameters).
     */
    std::uint64_t configFingerprint() const;

    /**
     * Serialize the whole machine — memory system, every core, the
     * scheduler and tracer when attached, and all statistic sheets —
     * into a snapshot image. Nothing is drained first: in-flight
     * wrong-path state rides along, so a restored run replays the
     * monolithic one bit for bit. `ctx_fp` tags the run context
     * (workload identity + warmup position); restore validates it.
     */
    std::vector<std::uint8_t> saveSnapshot(std::uint64_t ctx_fp) const;
    void saveSnapshotFile(const std::string &path,
                          std::uint64_t ctx_fp) const;

    /**
     * Restore from a snapshot image. Precondition: this system was
     * built from the same SystemConfig and the same workload
     * loading/admission calls were replayed (loadWorkload /
     * addScheduledWorkload install the Program pointers a snapshot
     * cannot carry). Throws SnapshotError on any mismatch or
     * corruption, leaving no partial state observable to callers that
     * catch and rebuild.
     */
    void restoreSnapshot(std::vector<std::uint8_t> image,
                         std::uint64_t ctx_fp);

  private:
    SystemConfig cfg_;
    StatGroup root_;
    std::unique_ptr<MemSystem> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Declared after cores_ (holds raw Core pointers). */
    std::unique_ptr<Scheduler> sched_;
    /** Owned copies of scheduled workloads: the scheduler's tasks point
     *  into these programs for the system's whole lifetime. */
    std::vector<std::unique_ptr<Workload>> schedJobs_;
    /** Event tracer, when attached; components hold raw pointers into
     *  it, so it lives as long as the system. */
    std::unique_ptr<Tracer> tracer_;
};

} // namespace mtrap

#endif // MTRAP_SIM_SYSTEM_HH

/**
 * @file
 * Open-system "server farm" workloads: a deterministic seeded arrival
 * process admits jobs mid-run, the gang scheduler time-shares them
 * under QoS attributes (weights, deadlines, IO-wait), and a
 * ServerReport distils the queueing behaviour — sojourn/wait latency
 * percentiles, core occupancy, deadline-miss rate, throughput.
 *
 * Everything here is deterministic by construction: the whole arrival
 * schedule (arrival cycles, per-job profile/service-demand/weight/
 * deadline draws) is generated up front from ArrivalParams::seed, so a
 * server run is a pure function of (SystemConfig, SchedParams,
 * ArrivalParams, RunOptions) — the same schedule, series and
 * percentiles fall out regardless of harness thread count, chunking or
 * snapshot-resume position.
 */

#ifndef MTRAP_SIM_ARRIVAL_HH
#define MTRAP_SIM_ARRIVAL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/scheduler.hh"
#include "sim/system.hh"

namespace mtrap
{

/** Arrival-pattern family. */
enum class ArrivalPattern {
    /** Memoryless arrivals: exponential inter-arrival gaps with mean
     *  meanInterarrival (the classic open-system M/G/k shape). */
    Poisson,
    /** Bursty arrivals: groups of burstSize jobs spaced
     *  burstSpacing apart, bursts separated by an exponential gap with
     *  mean burstSize * meanInterarrival (same long-run rate as
     *  Poisson, much worse tail behaviour). */
    Burst,
};

const char *arrivalPatternName(ArrivalPattern p);

/** Shape of one open-system run's offered load. */
struct ArrivalParams
{
    /** Schedule seed: drives every draw (gaps, profiles, demands,
     *  weights). Same seed => byte-identical schedule. */
    std::uint64_t seed = 1;
    ArrivalPattern pattern = ArrivalPattern::Poisson;
    /** Total jobs to admit over the run. */
    std::uint64_t jobs = 16;
    /** Mean inter-arrival gap in cycles (the load knob: smaller =
     *  heavier offered load). */
    Cycle meanInterarrival = 40'000;
    /** Burst pattern only: jobs per burst / in-burst spacing. */
    unsigned burstSize = 4;
    Cycle burstSpacing = 200;
    /** Per-job service demand (committed instructions), drawn uniformly
     *  from [serviceMinCommits, serviceMaxCommits]. */
    std::uint64_t serviceMinCommits = 20'000;
    std::uint64_t serviceMaxCommits = 60'000;
    /** Per-job deadline = arrival + serviceCommits * deadlineFactor
     *  cycles; 0 = no deadlines. At IPC 1 a factor of 1 is already
     *  tight, so realistic QoS targets are 3..10. */
    unsigned deadlineFactor = 0;
    /** Scheduler weight drawn uniformly from [1, maxWeight] (weighted
     *  quanta: weight w => w consecutive quanta per scheduling round).
     *  1 = every job equal. */
    unsigned maxWeight = 1;
    /** IO-wait emulation, applied to every job: after each
     *  sleepPeriodCommits committed instructions the job sleeps
     *  sleepDurationCycles (0 = never sleeps). */
    std::uint64_t sleepPeriodCommits = 0;
    Cycle sleepDurationCycles = 0;
    /** Profile mix the per-job draw picks from: names resolvable as
     *  SPEC (single-thread) or Parsec (multi-thread gang) profiles.
     *  Empty = a default six-benchmark SPEC mix. */
    std::vector<std::string> profiles;
    /** Asid of the first admitted job; job i gets firstAsid + i. */
    Asid firstAsid = 1;
};

/** One pre-drawn arrival. */
struct ArrivalEvent
{
    Cycle at = 0;
    std::string profile;
    std::uint64_t serviceCommits = 0;
    Cycle deadline = 0; // absolute; 0 = none
    unsigned weight = 1;
    /** Mixed into the profile's kernel seed so two jobs of the same
     *  benchmark do not stride identical address streams. */
    std::uint64_t workloadSeed = 0;
};

/** Generate the full deterministic schedule for `p` (first arrival at
 *  cycle >= 1, strictly non-decreasing). */
std::vector<ArrivalEvent> generateArrivalSchedule(const ArrivalParams &p);

/** Threads of the widest job `p`'s profile mix can draw (the default
 *  mix is all single-threaded). */
unsigned maxArrivalThreads(const ArrivalParams &p);

/**
 * The System-coupled arrival source: owns the pre-generated schedule
 * and admits jobs into the system's scheduler as simulated time reaches
 * their arrival cycles (the scheduler polls it at decision-grid
 * points — see Scheduler::setArrivalSource). Attach with:
 *
 *   ArrivalInjector inj(sys, params);
 *   sys.scheduler()->setArrivalSource(&inj);
 */
class ArrivalInjector : public ArrivalSource
{
  public:
    ArrivalInjector(System &sys, const ArrivalParams &p);

    Cycle nextArrivalCycle() const override;
    unsigned admitUpTo(Cycle now) override;

    const std::vector<ArrivalEvent> &schedule() const { return events_; }
    /** Jobs admitted so far (== the snapshot replay count). */
    std::size_t admitted() const { return next_; }

    /**
     * Snapshot-restore support: re-admit the first `n` arrivals of the
     * schedule into a *fresh* system (re-binding the Program pointers a
     * snapshot cannot carry), before System::restoreSnapshot overwrites
     * the machine state. Fatal if any job was already admitted.
     */
    void replayAdmissions(std::size_t n);

  private:
    void admitOne(const ArrivalEvent &e, std::size_t index);

    System &sys_;
    ArrivalParams params_;
    std::vector<ArrivalEvent> events_;
    std::size_t next_ = 0;
};

/**
 * Nearest-rank percentile (pct in [1,100]) of an unsorted sample set;
 * 0 for an empty set. Integer-exact: no interpolation, so golden
 * artifacts are platform-stable.
 */
Cycle percentileCycles(std::vector<Cycle> samples, unsigned pct);

/** Queueing-behaviour digest of one open-system run. */
struct ServerReport
{
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    /** Jobs that carried a deadline / that missed it (unfinished jobs
     *  with a deadline count as misses). */
    std::uint64_t deadlineTotal = 0;
    std::uint64_t deadlineMisses = 0;
    /** Total committed instructions across all jobs. */
    std::uint64_t committed = 0;
    /** Makespan: last commit cycle over all cores. */
    Cycle makespan = 0;
    /** Sojourn time (finish - arrival) percentiles over completed
     *  jobs. */
    Cycle sojournP50 = 0, sojournP95 = 0, sojournP99 = 0, sojournMax = 0;
    /** Wait time (first run - arrival) percentiles over started
     *  jobs. */
    Cycle waitP50 = 0, waitP95 = 0, waitP99 = 0;
    double meanSojourn = 0.0;
    /** Busy-cycle fraction: sum(core busy cycles) / (cores *
     *  makespan). */
    double occupancy = 0.0;
    /** Completed jobs per million cycles. */
    double throughputPerMcycle = 0.0;
    /** Aggregate IPC: committed / makespan. */
    double ipc = 0.0;

    /** Distil the report from the scheduler's job records and the
     *  cores' busy-cycle accounting. */
    static ServerReport build(System &sys, const ArrivalInjector &inj);

    void print(std::ostream &os) const;
};

/**
 * Mid-stream server snapshot: an outer kTagArrival frame carrying the
 * admission count plus the embedded System image. Restore on a fresh
 * (system, injector) pair built from identical parameters: the
 * injector replays the admissions (re-binding program pointers), then
 * the System image overwrites all machine state — after which the run
 * continues bit-identically to the unsnapshotted one.
 */
std::vector<std::uint8_t> saveServerSnapshot(const System &sys,
                                             const ArrivalInjector &inj,
                                             std::uint64_t ctx_fp);
void restoreServerSnapshot(System &sys, ArrivalInjector &inj,
                           std::vector<std::uint8_t> image,
                           std::uint64_t ctx_fp);

} // namespace mtrap

#endif // MTRAP_SIM_ARRIVAL_HH

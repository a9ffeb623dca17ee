/**
 * @file
 * Host-throughput benchmark of the simulator: how many simulated
 * instructions per host second a user gets on long, warmed runs, what
 * set-up costs, how much memory a run needs, and whether the defences
 * still block the attacks.
 *
 * Usage:
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A workload is a fixed list of simulation jobs. One round runs every
 * job once, back to back, in this single-threaded process, on one of
 * kInputSets input sets generated from N. Rounds run in whole passes over
 * the sets until about S seconds have passed. End-to-end times are, per
 * input set, the median over that set's rounds, so one disturbed round
 * cannot move them.
 *
 * --trace 1 interleaves every plain round with a traced one. The traced
 * round builds the same machine from its public parts and puts a timing
 * decorator (TimedMem) between each Core and the MemSystem, so host time
 * splits into the core side and one row per MemIface call class. The
 * traced round must reproduce the plain round's simulated results
 * exactly; it is checked.
 *
 * Every line but the last is for people. The last line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The process
 * exits 1 when any check failed.
 */

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hh"
#include "cpu/core.hh"
#include "cpu/mem_iface.hh"
#include "defense/scheme.hh"
#include "sim/mem_system.hh"
#include "sim/scheduler.hh"
#include "sim/system.hh"
#include "workload/attacks.hh"
#include "workload/kernels.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

using namespace mtrap;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Span clock for the traced run. On x86-64 the invariant time-stamp
 * counter costs a few ns per read against ~20 ns for the steady clock,
 * which keeps the timing of ~4 MemIface calls per instruction from
 * dominating what it measures; ticks are converted to ns against the
 * steady clock over each traced measured phase.
 */
std::uint64_t
spanTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

/** One simulation job: a machine under one scheme and the programs it
 *  runs. Instruction counts are per core. */
struct JobSpec
{
    Scheme scheme;
    unsigned cores;
    /** Profiles to run. Loaded directly (thread i on core i) unless
     *  `scheduled`, in which case each is admitted to a gang scheduler
     *  as its own process with its own address space. */
    std::vector<std::string> programs;
    bool parsec = false;
    bool scheduled = false;
    Cycle quantum = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

struct WorkloadSpec
{
    std::string name;
    std::vector<JobSpec> jobs;
};

/** The scheme columns the per-scheme split reports, with fixed labels
 *  so metric names do not follow display-name changes. */
struct SchemeLabel
{
    Scheme scheme;
    const char *label;
};
const std::array<SchemeLabel, 4> kSchemeLabels{{
    {Scheme::Baseline, "Baseline"},
    {Scheme::MuonTrap, "MuonTrap"},
    {Scheme::InvisiSpecSpectre, "InvisiSpec-Spectre"},
    {Scheme::SttSpectre, "STT-Spectre"},
}};

std::vector<WorkloadSpec>
allWorkloads()
{
    std::vector<WorkloadSpec> out;

    // One core takes System::run's stepLoop path with no coherence
    // traffic, so the core's fetch/retire work dominates. mcf chases
    // pointers, gcc mixes work, sjeng is branchy and decode-bound,
    // libquantum streams through the prefetcher.
    WorkloadSpec spec{"spec-1core", {}};
    for (const char *p : {"mcf", "gcc", "sjeng", "libquantum"})
        for (Scheme s : {Scheme::Baseline, Scheme::MuonTrap})
            spec.jobs.push_back(JobSpec{s, 1, {p}, false, false, 0,
                                        50'000, 200'000});
    out.push_back(spec);

    // Four threads on four cores: the only workload with cross-core
    // stepping and stores to shared lines (invalidations, SE upgrades),
    // so the memory system and coherence do the most work here.
    WorkloadSpec parsec{"parsec-4core", {}};
    for (const char *p : {"canneal", "streamcluster", "freqmine"})
        for (Scheme s : {Scheme::MuonTrap, Scheme::InvisiSpecSpectre,
                         Scheme::SttSpectre})
            parsec.jobs.push_back(JobSpec{s, 4, {p}, true, false, 0,
                                          12'500, 50'000});
    out.push_back(parsec);

    // Eight single-thread processes time-share four cores with a short
    // quantum: context-switch drains, filter flushes and eight address
    // spaces, with the core used in short slices.
    WorkloadSpec ts{"timeshare-4core", {}};
    const std::vector<std::string> mix{"mcf",   "gcc",     "sjeng",
                                       "libquantum", "astar", "bzip2",
                                       "omnetpp", "h264ref"};
    for (Scheme s : {Scheme::MuonTrap, Scheme::Baseline})
        ts.jobs.push_back(JobSpec{s, 4, mix, false, true, 5'000,
                                  30'000, 200'000});
    out.push_back(ts);

    return out;
}

/** Build a job's programs from their profiles, mixing the benchmark
 *  seed into each profile seed the way the harness does for named
 *  workloads. Scheduled processes get ASIDs 1..N. */
std::vector<Workload>
buildJobWorkloads(const JobSpec &job, std::uint64_t seed)
{
    std::vector<Workload> out;
    Asid asid = 1;
    for (const std::string &name : job.programs) {
        WorkloadProfile p = job.parsec ? parsecProfile(name, job.cores)
                                       : specProfile(name);
        if (seed)
            p.seed = mixSeeds(p.seed, seed);
        out.push_back(buildWorkload(p, job.scheduled ? asid++ : 1));
    }
    return out;
}

// --------------------------------------------------------------------------
// Traced machine
// --------------------------------------------------------------------------

/** MemIface call classes the traced run times separately. */
enum MemClass : unsigned
{
    kData,      ///< dataAccess
    kProbe,     ///< dataProbe, dataHitsPrivate
    kIfetch,    ///< ifetchAccess
    kCommit,    ///< commitData, commitIfetch
    kFuncRead,  ///< functional reads (the per-core word cache)
    kFuncWrite, ///< functional writes
    kEvent,     ///< context switch, squash, syscall, sandbox, barrier
    kNumClasses
};
const std::array<const char *, kNumClasses> kClassNames{
    "data", "probe", "ifetch", "commit", "func_read", "func_write",
    "event"};

struct CallRow
{
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
};
using CallRows = std::array<CallRow, kNumClasses>;

/**
 * Timing decorator between the cores and the memory system: forwards
 * every MemIface call to the real MemSystem and charges its host time
 * to the call's class. Nothing below the MemIface boundary is touched.
 */
class TimedMem final : public MemIface
{
  public:
    explicit TimedMem(MemSystem &inner) : inner_(inner) {}

    CallRows rows{};

    DataAccessResult
    dataAccess(CoreId core, Asid asid, Addr vaddr, Addr pc, bool is_store,
               bool speculative, Cycle when) override
    {
        Span s(rows[kData]);
        return inner_.dataAccess(core, asid, vaddr, pc, is_store,
                                 speculative, when);
    }
    Cycle
    dataProbe(CoreId core, Asid asid, Addr vaddr, Cycle when) override
    {
        Span s(rows[kProbe]);
        return inner_.dataProbe(core, asid, vaddr, when);
    }
    bool
    dataHitsPrivate(CoreId core, Asid asid, Addr vaddr) override
    {
        Span s(rows[kProbe]);
        return inner_.dataHitsPrivate(core, asid, vaddr);
    }
    Cycle
    ifetchAccess(CoreId core, Asid asid, Addr vaddr, Cycle when) override
    {
        Span s(rows[kIfetch]);
        return inner_.ifetchAccess(core, asid, vaddr, when);
    }
    void
    commitData(CoreId core, Asid asid, Addr vaddr, Addr pc, bool is_store,
               bool tlb_missed, Cycle when) override
    {
        Span s(rows[kCommit]);
        inner_.commitData(core, asid, vaddr, pc, is_store, tlb_missed,
                          when);
    }
    void
    commitIfetch(CoreId core, Asid asid, Addr vaddr, Cycle when) override
    {
        Span s(rows[kCommit]);
        inner_.commitIfetch(core, asid, vaddr, when);
    }
    void
    onSyscall(CoreId core, Cycle when) override
    {
        Span s(rows[kEvent]);
        inner_.onSyscall(core, when);
    }
    void
    onSandboxSwitch(CoreId core, Cycle when) override
    {
        Span s(rows[kEvent]);
        inner_.onSandboxSwitch(core, when);
    }
    void
    onContextSwitch(CoreId core, Cycle when) override
    {
        Span s(rows[kEvent]);
        inner_.onContextSwitch(core, when);
    }
    void
    onFlushBarrier(CoreId core, Cycle when) override
    {
        Span s(rows[kEvent]);
        inner_.onFlushBarrier(core, when);
    }
    void
    onSquash(CoreId core, Cycle when) override
    {
        Span s(rows[kEvent]);
        inner_.onSquash(core, when);
    }
    std::uint64_t
    read(Asid asid, Addr vaddr) override
    {
        Span s(rows[kFuncRead]);
        return inner_.read(asid, vaddr);
    }
    std::uint64_t
    read(CoreId core, Asid asid, Addr vaddr) override
    {
        Span s(rows[kFuncRead]);
        return inner_.read(core, asid, vaddr);
    }
    void
    write(Asid asid, Addr vaddr, std::uint64_t value) override
    {
        Span s(rows[kFuncWrite]);
        inner_.write(asid, vaddr, value);
    }

  private:
    /** Charges the enclosing call's duration to one row. */
    class Span
    {
      public:
        explicit Span(CallRow &row) : row_(row), start_(spanTicks()) {}
        ~Span()
        {
            row_.ticks += spanTicks() - start_;
            ++row_.calls;
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        CallRow &row_;
        std::uint64_t start_;
    };

    MemSystem &inner_;
};

/**
 * The machine System builds, assembled from the same public parts in the
 * same order (so the stat tree matches), with a TimedMem between the
 * cores and the memory system. Its run loops mirror System::runTo and
 * System::runScheduled; the benchmark checks that it reproduces the
 * plain System's simulated results.
 */
class TracedSystem
{
  public:
    explicit TracedSystem(const SystemConfig &cfg) : root_("system")
    {
        MemSystemParams mp = cfg.mem;
        mp.cores = cfg.cores;
        mem_ = std::make_unique<MemSystem>(mp, &root_);
        timed_ = std::make_unique<TimedMem>(*mem_);
        for (CoreId c = 0; c < cfg.cores; ++c)
            cores_.push_back(std::make_unique<Core>(c, cfg.core,
                                                    timed_.get(), &root_));
    }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    Core &core(CoreId c) { return *cores_.at(c); }
    StatGroup &root() { return root_; }
    Scheduler *scheduler() { return sched_.get(); }
    CallRows &rows() { return timed_->rows; }

    void
    loadWorkload(const Workload &w)
    {
        if (w.init)
            w.init(*mem_);
        for (unsigned t = 0; t < w.threads(); ++t) {
            ArchContext ctx;
            ctx.program = &w.threadPrograms[t];
            ctx.asid = w.asid;
            ctx.pc = w.threadPrograms[t].entry;
            cores_.at(t)->setContext(ctx);
        }
    }

    Scheduler &
    attachScheduler(const SchedParams &params)
    {
        std::vector<Core *> cores;
        for (auto &c : cores_)
            cores.push_back(c.get());
        sched_ = std::make_unique<Scheduler>(std::move(cores), params);
        return *sched_;
    }

    void
    addScheduledWorkload(const Workload &w)
    {
        if (w.init)
            w.init(*mem_);
        jobs_.push_back(std::make_unique<Workload>(w));
        std::vector<const Program *> programs;
        for (const Program &p : jobs_.back()->threadPrograms)
            programs.push_back(&p);
        sched_->addJob(programs, w.asid, JobAdmit{});
    }

    std::uint64_t
    runScheduled(std::uint64_t total_commits)
    {
        return sched_->run(total_commits);
    }

    /** System::runTo's interleave: one core steps its whole run; with
     *  several, the core with the smallest (clock, id) steps until the
     *  runner-up's clock passes it. */
    void
    run(std::uint64_t max_commits_per_core)
    {
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

        if (numCores() == 1) {
            Core &c = *cores_[0];
            c.stepLoop(c.committedCount() + max_commits_per_core);
            return;
        }

        std::vector<Entry> act;
        for (unsigned c = 0; c < numCores(); ++c) {
            Core &core = *cores_[c];
            const std::uint64_t target =
                core.committedCount() + max_commits_per_core;
            if (!core.halted())
                act.push_back(Entry{core.now(), c, &core, target});
        }
        while (!act.empty()) {
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

    void
    resetStats()
    {
        root_.resetAll();
        timed_->rows = CallRows{};
    }

    Cycle
    maxCommitCycle() const
    {
        Cycle m = 0;
        for (const auto &c : cores_)
            m = std::max(m, c->lastCommitCycle());
        return m;
    }

  private:
    StatGroup root_;
    std::unique_ptr<MemSystem> mem_;
    std::unique_ptr<TimedMem> timed_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<Scheduler> sched_;
    std::vector<std::unique_ptr<Workload>> jobs_;
};

// --------------------------------------------------------------------------
// Running one job
// --------------------------------------------------------------------------

/** Outcome of one job. Times are host seconds; counts cover the
 *  measured phase. */
struct JobResult
{
    double buildS = 0;
    double constructS = 0;
    double loadS = 0;
    double warmS = 0;
    double measureS = 0;

    /** Simulated results the traced run must reproduce. */
    Cycle cycles = 0;
    std::vector<std::uint64_t> committedPerCore;
    bool reachedTarget = true;

    /** Stat tree summed over per-core instances ("l1d.misses", ...),
     *  when the round keeps it. */
    std::map<std::string, double> stats;
    std::uint64_t switches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t idleSlots = 0;

    /** The measured phase on the span clock, and (traced runs only)
     *  the per-class MemIface time within it. */
    std::uint64_t measureTicks = 0;
    CallRows rows{};

    std::uint64_t
    committed() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : committedPerCore)
            n += c;
        return n;
    }
};

/** Drop the system/memsys prefix and the instance number of per-core
 *  groups: "system.memsys.l1d0.misses" -> "l1d.misses". */
std::string
statKey(const std::string &path)
{
    static const std::regex prefix("^system\\.(memsys\\.)?");
    static const std::regex instance(
        "\\b(core|l1d|l1i|dtlb|itlb|muontrap|specbuf)[0-9]+\\b");
    return std::regex_replace(std::regex_replace(path, prefix, ""),
                              instance, "$1");
}

/** Advance every core by `per_core` commits (a scheduled job: by
 *  `per_core` x cores in total). Returns whether every target was
 *  reached. */
template <class Machine>
bool
advance(Machine &m, const JobSpec &job, std::uint64_t per_core)
{
    if (job.scheduled) {
        const std::uint64_t total = per_core * job.cores;
        return m.runScheduled(total) >= total;
    }
    std::vector<std::uint64_t> targets;
    for (unsigned c = 0; c < m.numCores(); ++c)
        targets.push_back(m.core(c).committedCount() + per_core);
    m.run(per_core);
    for (unsigned c = 0; c < m.numCores(); ++c)
        if (m.core(c).committedCount() < targets[c])
            return false;
    return true;
}

template <class Machine>
JobResult
runJob(const JobSpec &job, std::uint64_t seed, bool keep_stats)
{
    JobResult r;
    Clock::time_point t = Clock::now();
    auto lap = [&t] {
        const Clock::time_point now = Clock::now();
        const double s = secondsBetween(t, now);
        t = now;
        return s;
    };

    const std::vector<Workload> workloads = buildJobWorkloads(job, seed);
    r.buildS = lap();

    Machine m(SystemConfig::forScheme(job.scheme, job.cores));
    if (job.scheduled) {
        SchedParams sp;
        sp.quantum = job.quantum;
        m.attachScheduler(sp);
    }
    r.constructS = lap();

    for (const Workload &w : workloads) {
        if (job.scheduled)
            m.addScheduledWorkload(w);
        else
            m.loadWorkload(w);
    }
    r.loadS = lap();

    r.reachedTarget = advance(m, job, job.warmup);
    r.warmS = lap();

    m.resetStats();
    Scheduler *sched = m.scheduler();
    const std::uint64_t sw0 = sched ? sched->switches() : 0;
    const std::uint64_t mig0 = sched ? sched->migrations() : 0;
    const std::uint64_t idle0 = sched ? sched->idleSlots() : 0;
    const Cycle start = m.maxCommitCycle();
    lap();
    const std::uint64_t ticks0 = spanTicks();
    r.reachedTarget = advance(m, job, job.measure) && r.reachedTarget;
    r.measureTicks = spanTicks() - ticks0;
    r.measureS = lap();

    const Cycle end = m.maxCommitCycle();
    r.cycles = end > start ? end - start : 0;
    for (unsigned c = 0; c < m.numCores(); ++c)
        r.committedPerCore.push_back(m.core(c).committedCount());
    if (sched) {
        r.switches = sched->switches() - sw0;
        r.migrations = sched->migrations() - mig0;
        r.idleSlots = sched->idleSlots() - idle0;
    }
    if (keep_stats)
        m.root().visit([&r](const std::string &path, const StatView &v) {
            r.stats[statKey(path)] += v.number();
        });
    if constexpr (std::is_same_v<Machine, TracedSystem>)
        r.rows = m.rows();
    return r;
}

// --------------------------------------------------------------------------
// Rounds and metrics
// --------------------------------------------------------------------------

struct Round
{
    std::vector<JobResult> jobs;

    double
    setupS() const
    {
        double s = 0;
        for (const JobResult &j : jobs)
            s += j.buildS + j.constructS + j.loadS + j.warmS;
        return s;
    }
    double
    measureS() const
    {
        double s = 0;
        for (const JobResult &j : jobs)
            s += j.measureS;
        return s;
    }
    std::uint64_t
    committed() const
    {
        std::uint64_t n = 0;
        for (const JobResult &j : jobs)
            n += j.committed();
        return n;
    }
    Cycle
    cycles() const
    {
        Cycle c = 0;
        for (const JobResult &j : jobs)
            c += j.cycles;
        return c;
    }
    std::uint64_t
    measureTicks() const
    {
        std::uint64_t t = 0;
        for (const JobResult &j : jobs)
            t += j.measureTicks;
        return t;
    }
    CallRows
    rows() const
    {
        CallRows rows{};
        for (const JobResult &j : jobs)
            for (unsigned c = 0; c < kNumClasses; ++c) {
                rows[c].calls += j.rows[c].calls;
                rows[c].ticks += j.rows[c].ticks;
            }
        return rows;
    }
};

template <class Machine>
Round
runRound(const WorkloadSpec &w, std::uint64_t seed, bool keep_stats)
{
    Round r;
    for (const JobSpec &job : w.jobs)
        r.jobs.push_back(runJob<Machine>(job, seed, keep_stats));
    return r;
}

/**
 * Rounds cycle through this many input sets; set k's programs are
 * generated from mixSeeds(seed, k). Host speed differs between the
 * programs one seed generates and those another does; spreading every
 * run over several sets keeps that from showing as run-to-run noise.
 */
constexpr std::size_t kInputSets = 8;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** For each input set, the median of `f` over that set's rounds; summed
 *  over the sets. A disturbed round moves its set's median at most. */
template <class F>
double
sumOfSetMedians(const std::vector<Round> &rounds, F f)
{
    double total = 0;
    for (std::size_t set = 0; set < kInputSets && set < rounds.size();
         ++set) {
        std::vector<double> v;
        for (std::size_t i = set; i < rounds.size(); i += kInputSets)
            v.push_back(f(rounds[i]));
        total += median(v);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Peak resident set of this process image, MB: VmHWM from
 * /proc/self/status. getrusage's ru_maxrss is not used because Linux
 * carries it across exec, so it would report the launching process's
 * footprint whenever that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

/** Correctness bookkeeping: every check is one attempted operation. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAIL %s\n", what.c_str());
        }
    }
};

std::string
jobLabel(const JobSpec &job)
{
    std::string s = schemeName(job.scheme);
    s += job.scheduled ? "/timeshare" : "/" + job.programs.front();
    return s;
}

/** Simulated results of two runs of the same job are identical. */
bool
sameSimulation(const JobResult &a, const JobResult &b)
{
    return a.cycles == b.cycles && a.committedPerCore == b.committedPerCore;
}

/** Check a round: every job reached its targets, and (when given) it
 *  reproduced a reference round's simulated results. */
void
checkRound(Checks &checks, const WorkloadSpec &w, const Round &r,
           const Round *ref, const char *what)
{
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const std::string label = jobLabel(w.jobs[i]);
        checks.expect(r.jobs[i].reachedTarget,
                      label + ": commit target reached (" + what + ")");
        if (ref)
            checks.expect(sameSimulation(r.jobs[i], ref->jobs[i]),
                          label + ": simulated results equal (" + what +
                              ")");
    }
}

/** Every cell of the security matrix matches its declared outcome. */
void
checkSecurity(Checks &checks)
{
    for (Scheme s : allSchemes())
        for (const AttackOutcome &o : runAllAttacks(s))
            checks.expect(o.leaked == expectedLeak(o.attack, s),
                          "security " + o.attack + " under " +
                              schemeName(s));
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Modelled-layer work counts over one round (simulated, exact). */
void
addModelCounts(std::vector<Metric> &out, const Round &r)
{
    std::map<std::string, double> s;
    std::uint64_t switches = 0, migrations = 0, idle = 0;
    for (const JobResult &j : r.jobs) {
        for (const auto &[k, v] : j.stats)
            s[k] += v;
        switches += j.switches;
        migrations += j.migrations;
        idle += j.idleSlots;
    }
    auto missRate = [&s](const std::string &c) {
        return ratio(s[c + ".misses"], s[c + ".hits"] + s[c + ".misses"]);
    };
    out.push_back({"l1d.miss_rate", missRate("l1d"), "ratio"});
    out.push_back({"l2.fills", s["l2.fills"], "count"});
    out.push_back({"fcache_d.miss_rate", missRate("muontrap.fcache_d"),
                   "ratio"});
    out.push_back({"filter.uncommitted_evictions",
                   s["muontrap.fcache_d_filter.uncommitted_evictions"] +
                       s["muontrap.fcache_i_filter.uncommitted_evictions"],
                   "count"});
    out.push_back({"filter.flush_ctx_switch",
                   s["muontrap.flush_ctx_switch"], "count"});
    out.push_back({"bus.transactions", s["bus.transactions"], "count"});
    out.push_back({"bus.nacks", s["bus.nacks"], "count"});
    out.push_back({"prefetcher.issued", s["prefetcher.issued"], "count"});
    out.push_back({"dtlb.misses", s["dtlb.misses"], "count"});
    out.push_back({"specbuf.allocations", s["specbuf.allocations"],
                   "count"});
    out.push_back({"core.squashes", s["core.squashes"], "count"});
    out.push_back({"core.fetched_per_commit",
                   ratio(s["core.fetched"], s["core.committed"]), "ratio"});
    out.push_back({"bpred.mispredict_rate",
                   ratio(s["bpred.mispredicts"], s["bpred.lookups"]),
                   "ratio"});
    out.push_back({"sched.switches", double(switches), "count"});
    out.push_back({"sched.migrations", double(migrations), "count"});
    out.push_back({"sched.idle_slots", double(idle), "count"});
    out.push_back({"sim.cycles", double(r.cycles()), "count"});
    out.push_back({"sim.committed", double(r.committed()), "count"});
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-32s %16s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit);
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** sim_kips, setup_s and peak_rss_mb from the plain rounds. Also
 *  prints them with fail_rate, which is the result's failed/attempted
 *  and so not repeated among the metrics. */
std::vector<Metric>
endToEndMetrics(const std::vector<Round> &plain, const Checks &checks,
                double rss)
{
    double committed = 0;
    for (std::size_t set = 0; set < kInputSets; ++set)
        committed += double(plain.at(set).committed());
    const double measure_s =
        sumOfSetMedians(plain, [](const Round &r) { return r.measureS(); });
    const double setup_s =
        sumOfSetMedians(plain, [](const Round &r) { return r.setupS(); });
    std::vector<Metric> m{{"sim_kips", committed / measure_s / 1e3,
                           "kinst/s"},
                          {"setup_s", setup_s, "s"},
                          {"peak_rss_mb", rss, "MB"}};
    const double fail_rate =
        ratio(double(checks.failed), double(checks.attempted));
    std::printf("end-to-end: sim_kips %s kinst/s | setup_s %s s | "
                "peak_rss_mb %s MB | fail_rate %s (%llu failed / %llu "
                "attempted)\n",
                number(m[0].value).c_str(), number(m[1].value).c_str(),
                number(m[2].value).c_str(), number(fail_rate).c_str(),
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    return m;
}

/** Per-layer metrics: host-time split of the traced rounds, the
 *  per-scheme and set-up split of the plain rounds, trace overhead, and
 *  the simulated work counts of input set 0. */
std::vector<Metric>
layerMetrics(const WorkloadSpec &w, const std::vector<Round> &plain,
             const std::vector<Round> &traced)
{
    std::vector<Metric> m;

    // Host time of the traced measured phases, split at the MemIface
    // boundary. Everything outside a MemIface call is the core's:
    // fetch, retire, and the System/Scheduler stepping around it. Call
    // counts are input set 0's, so they repeat exactly.
    CallRows rows{};
    double traced_ns = 0, traced_ticks = 0;
    std::uint64_t traced_committed = 0;
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const CallRows r = traced[i].rows();
        for (unsigned c = 0; c < kNumClasses; ++c) {
            rows[c].calls += r[c].calls;
            rows[c].ticks += r[c].ticks;
        }
        traced_ticks += double(traced[i].measureTicks());
        traced_ns += traced[i].measureS() * 1e9;
        traced_committed += traced[i].committed();
        overhead.push_back(
            ratio(traced[i].measureS(), plain[i].measureS()) - 1);
    }
    const CallRows calls = traced.front().rows();
    const double ns_per_tick = ratio(traced_ns, traced_ticks);
    double mem_ticks = 0;
    for (const CallRow &row : rows)
        mem_ticks += double(row.ticks);
    const double core_ticks = std::max(0.0, traced_ticks - mem_ticks);
    m.push_back({"core.self_share", ratio(core_ticks, traced_ticks),
                 "ratio"});
    m.push_back({"core.ns_per_inst",
                 ratio(core_ticks * ns_per_tick, double(traced_committed)),
                 "ns/inst"});
    for (unsigned c = 0; c < kNumClasses; ++c) {
        const std::string p = std::string("mem.") + kClassNames[c];
        const double ticks = double(rows[c].ticks);
        m.push_back({p + ".calls", double(calls[c].calls), "count"});
        m.push_back({p + ".ns_per_call",
                     ratio(ticks * ns_per_tick, double(rows[c].calls)),
                     "ns"});
        m.push_back({p + ".share", ratio(ticks, traced_ticks), "ratio"});
    }
    m.push_back({"trace.overhead", median(overhead), "ratio"});

    // Untraced: host time per committed instruction by scheme (0 for a
    // scheme the workload does not run), and the set-up phases.
    for (const SchemeLabel &sl : kSchemeLabels) {
        double ns = 0, insts = 0;
        for (const Round &r : plain)
            for (std::size_t i = 0; i < w.jobs.size(); ++i)
                if (w.jobs[i].scheme == sl.scheme) {
                    ns += r.jobs[i].measureS * 1e9;
                    insts += double(r.jobs[i].committed());
                }
        m.push_back({std::string("scheme.") + sl.label + ".ns_per_inst",
                     ratio(ns, insts), "ns/inst"});
    }
    auto phase = [&plain](double JobResult::*field) {
        return sumOfSetMedians(plain, [field](const Round &r) {
            double s = 0;
            for (const JobResult &j : r.jobs)
                s += j.*field;
            return s;
        });
    };
    m.push_back({"workload.build_ms", phase(&JobResult::buildS) * 1e3,
                 "ms"});
    m.push_back({"system.construct_ms",
                 phase(&JobResult::constructS) * 1e3, "ms"});
    m.push_back({"system.load_ms", phase(&JobResult::loadS) * 1e3, "ms"});
    m.push_back({"system.warm_s", phase(&JobResult::warmS), "s"});

    addModelCounts(m, plain.front());
    return m;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 msg);
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    const char *end = s + std::strlen(s);
    const auto res = std::from_chars(s, end, out);
    return res.ec == std::errc() && res.ptr == end && res.ptr != s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            have_seed = parseU64(v, seed);
        else if (a == "--seconds") {
            if (!parseU64(v, seconds) || seconds == 0 || seconds > 3600)
                return usage("--seconds must be 1..3600");
        } else if (a == "--trace") {
            if (!parseU64(v, trace) || trace > 1)
                return usage("--trace must be 0 or 1");
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (!have_seed || seconds == 0 || trace > 1)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    const std::vector<WorkloadSpec> all = allWorkloads();
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : all)
        if (w.name == workload)
            spec = &w;
    if (!spec)
        return usage(("unknown workload '" + workload + "'").c_str());
    const WorkloadSpec &w = *spec;

    std::printf("hostbench workload=%s seed=%llu seconds=%llu trace=%llu "
                "jobs=%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds),
                static_cast<unsigned long long>(trace), w.jobs.size());

    Checks checks;
    std::vector<Round> plain, traced;
    // Whole passes over the input sets, stopping at the pass boundary
    // nearest to the time limit (at least one pass).
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0, rss = 0;
    do {
        for (std::size_t set = 0; set < kInputSets; ++set) {
            const std::size_t k = plain.size();
            const std::uint64_t s = mixSeeds(seed, set);
            // Only the first round's stat tree is reported; keeping every
            // round's would grow the process with the number of rounds.
            plain.push_back(runRound<System>(w, s, k == 0));
            // Peak memory of one round on input set 0: later rounds
            // repeat the jobs on other sets, and whether one of them
            // crosses a hash-table growth step would make the figure
            // depend on the run length and the seed.
            if (k == 0)
                rss = peakRssMb();
            checkRound(checks, w, plain.back(),
                       k >= kInputSets ? &plain[k - kInputSets] : nullptr,
                       "rerun");
            if (trace) {
                traced.push_back(runRound<TracedSystem>(w, s, false));
                checkRound(checks, w, traced.back(), &plain.back(),
                           "traced");
            }
        }
        elapsed = secondsBetween(t0, Clock::now());
    } while (elapsed + elapsed / (plain.size() / kInputSets) / 2 <
             double(seconds));
    checkSecurity(checks);

    const Round &first = plain.front();
    std::printf("rounds=%zu input_sets=%zu; input set 0: sim.cycles=%llu "
                "sim.committed=%llu\n",
                plain.size(), std::min(plain.size(), kInputSets),
                static_cast<unsigned long long>(first.cycles()),
                static_cast<unsigned long long>(first.committed()));
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        std::printf("  job %-36s cycles=%llu committed=%llu\n",
                    jobLabel(w.jobs[i]).c_str(),
                    static_cast<unsigned long long>(first.jobs[i].cycles),
                    static_cast<unsigned long long>(
                        first.jobs[i].committed()));

    const std::vector<Metric> e2e = endToEndMetrics(plain, checks, rss);
    if (trace)
        printResult(checks, layerMetrics(w, plain, traced));
    else
        printResult(checks, e2e);
    return checks.failed == 0 ? 0 : 1;
}

/**
 * @file
 * Cycle-accurate event tracing: fixed-size binary ring buffers of
 * cycle-stamped simulation events, fed by near-zero-cost hooks in the
 * core, scheduler, MuonTrap controller, InvisiSpec buffer and the
 * coherence bus.
 *
 * Design constraints, in order:
 *  - Off by default and free when off: every hook is a single
 *    `if (tracer_)` branch on a pointer that is null unless a run
 *    explicitly attached a Tracer (RunOptions::trace / mtrap_sim
 *    --trace). No tracer, no work, no stats, no output changes.
 *  - Deterministic: events are stamped with simulated cycles only —
 *    never wall clock — so the same seed produces a byte-identical
 *    trace file, across runs and across harness thread counts.
 *  - Bounded: each buffer is a power-of-two ring with a drop-oldest
 *    overflow policy; drops are counted in the `trace.dropped` stat so
 *    a truncated trace is detectable, never silent.
 *
 * Event streams: one ring per core (events stamped by that core's
 * monotonic front-end clock), plus one shared ring for scheduler
 * decisions. The scheduler ring is separate because the global decision
 * sequence is *not* cycle-monotonic across cores (a parked core can
 * record a decision at an older cycle than later decisions of other
 * cores), and the Chrome exporter builds each core's slot spans from
 * that decision order.
 *
 * Exporters (Chrome trace-event JSON, CSV) live in chrome_trace.hh.
 */

#ifndef MTRAP_TRACE_TRACE_HH
#define MTRAP_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

class Serializer;
class Deserializer;

/** What happened (TraceEvent::kind). */
enum class TraceEventKind : std::uint8_t
{
    /** Scheduler decision: run job arg0, thread arg1 (sched ring). */
    SchedRun,
    /** Scheduler decision: idle gang-padding hole (sched ring). */
    SchedIdle,
    /** Scheduler decision: queue ran dry, core parked (sched ring). */
    SchedPark,
    /** Load balancer moved job arg0 here from core arg1 (sched ring). */
    SchedMigrate,
    /** Core switched address spaces; arg0 = incoming asid, arg1 =
     *  outgoing asid. */
    ContextSwitch,
    /** Pipeline squash; arg0 = correct-path pc. */
    Squash,
    /** MuonTrap filter flash-clear actually performed; arg0 =
     *  FlushReason ordinal. */
    FilterFlush,
    /** InvisiSpec speculative buffer cleared; arg0 = entries dropped. */
    SpecClear,
    /** Bus request missed L2 and went to DRAM; arg0 = paddr. */
    L2Miss,
    /** Bus NACKed a speculative request (MuonTrap coherency rules);
     *  arg0 = paddr. */
    BusNack,
    /** Open-system arrival: job arg0 admitted mid-run; the event is
     *  stamped with the arrival cycle (sched ring). */
    SchedArrive,
    /** Open-system completion: job arg0 finished its service demand
     *  (natural halt or service-limit exhaustion); arg1 = thread
     *  (sched ring). */
    SchedComplete,
};

/** Printable lower-case kind name (CSV column / JSON event name). */
const char *traceEventKindName(TraceEventKind kind);

/** One cycle-stamped event. POD, 24 bytes, memcpy-able. */
struct TraceEvent
{
    Cycle when = 0;
    std::uint64_t arg0 = 0;
    std::uint32_t arg1 = 0;
    std::uint16_t core = 0;
    TraceEventKind kind = TraceEventKind::SchedRun;
    std::uint8_t pad = 0;
};

/** Tracer sizing knobs. */
struct TraceParams
{
    /** Capacity of each ring (per-core and scheduler), rounded up to a
     *  power of two. Default comfortably holds every event of the
     *  bundled run lengths; longer runs drop oldest (counted). */
    std::size_t bufferEntries = std::size_t{1} << 16;
};

/**
 * Fixed-capacity power-of-two ring of TraceEvents with drop-oldest
 * overflow. Timestamps are clamped monotonic per buffer (insurance:
 * every producer already stamps with a monotonic per-core clock).
 */
class TraceBuffer
{
  public:
    /** `clamp_monotonic` is off for the scheduler ring: its events come
     *  from different cores' clocks, and clamping would rewrite the
     *  (non-monotonic) decision-order cycles. */
    explicit TraceBuffer(std::size_t entries,
                         bool clamp_monotonic = true);

    /** Append; drops the oldest event when full. @return true when an
     *  event was dropped to make room. */
    bool push(const TraceEvent &e);

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> ordered() const;

    /** Checkpoint the buffered events (ring renormalised to slot 0;
     *  only logical content and the monotonic clamp survive). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    std::vector<TraceEvent> ring_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0; ///< next write slot
    std::size_t count_ = 0;
    bool clamp_ = true;
    Cycle lastWhen_ = 0;
};

/**
 * The per-run event sink: one ring per core plus the shared scheduler
 * ring, with recorded/dropped telemetry. Attached to a System for the
 * run's lifetime; components hold a raw pointer and test it on every
 * hook.
 */
class Tracer
{
  public:
    /** `parent` may be null: a detached tracer keeps its stats out of
     *  any stat tree. */
    Tracer(unsigned cores, const TraceParams &params, StatGroup *parent);

    unsigned cores() const { return static_cast<unsigned>(perCore_.size()); }

    /** Record into `core`'s ring. */
    void record(CoreId core, TraceEventKind kind, Cycle when,
                std::uint64_t arg0 = 0, std::uint32_t arg1 = 0);

    /** Record into the shared scheduler ring (global decision order). */
    void recordSched(CoreId core, TraceEventKind kind, Cycle when,
                     std::uint64_t arg0 = 0, std::uint32_t arg1 = 0);

    const TraceBuffer &coreBuffer(CoreId core) const
    {
        return perCore_.at(core);
    }
    const TraceBuffer &schedBuffer() const { return sched_; }

    /** Human-readable job name for scheduler spans (Chrome export);
     *  falls back to "job<id>" when unset. */
    void setJobLabel(unsigned job, const std::string &name);
    std::string jobLabel(unsigned job) const;

    std::uint64_t recordedCount() const { return recorded.value(); }
    std::uint64_t droppedCount() const { return dropped.value(); }

    /** Checkpoint every ring plus the job labels. Warmup-phase events
     *  live in the rings, so a restored traced run must carry them to
     *  reproduce the monolithic run's trace files byte for byte. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    std::vector<TraceBuffer> perCore_;
    TraceBuffer sched_;
    std::vector<std::string> jobLabels_;

    StatGroup stats_;

  public:
    Counter recorded;
    Counter dropped;
};

} // namespace mtrap

#endif // MTRAP_TRACE_TRACE_HH

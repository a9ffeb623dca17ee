/**
 * @file
 * Execution-driven out-of-order core model.
 *
 * The core fetches down the *predicted* path, functionally executing
 * each micro-op as it is fetched while computing its pipeline timing
 * (fetch, ready, done, commit cycles) from data dependencies,
 * functional-unit contention, memory latency and structural limits
 * (fetch width, ROB/LQ/SQ occupancy). On a mispredicted branch the core
 * checkpoints architectural state and keeps fetching and executing the
 * *wrong path* — wrong-path loads genuinely access the memory hierarchy,
 * which is the Spectre vector — until the branch resolves, then squashes
 * and restores.
 *
 * Structural parameters default to the paper's Table 1 (8-wide, 192 ROB,
 * 32 LQ, 32 SQ, 6 int ALUs, 4 FP ALUs, 2 mul/div, tournament predictor).
 *
 * Defence hooks:
 *  - STT (Spectre/Future): register taint timestamps delay execution of
 *    loads/stores whose *address* depends on a speculative load's
 *    result.
 *  - InvisiSpec (Spectre/Future): speculative loads probe the hierarchy
 *    without mutating it and are *exposed* (replayed, mutating) at their
 *    visibility point; commit waits for the exposure. Wrong-path loads
 *    only ever probe: their exposure point falls after the squash.
 *  - Delay-on-miss: speculative loads that miss the private hierarchy
 *    stall until non-speculative (wrong-path misses never access).
 *  - MuonTrap lives in the memory system; the core only reports commit,
 *    squash and domain-switch events through MemIface.
 */

#ifndef MTRAP_CPU_CORE_HH
#define MTRAP_CPU_CORE_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/mem_iface.hh"
#include "isa/decoded.hh"
#include "isa/program.hh"

namespace mtrap
{

class MemSystem;
class Tracer;

/** Core-side defence model (memory-side schemes need no core change). */
enum class CoreDefense : std::uint8_t
{
    None,
    SttSpectre,
    SttFuture,
    InvisiSpecSpectre,
    InvisiSpecFuture,
    /** Delay-on-miss baseline: a speculative load that misses the
     *  private hierarchy (filter + L1D) stalls until it is
     *  non-speculative; wrong-path misses never reach the caches. */
    DelayOnMiss,
};

const char *coreDefenseName(CoreDefense d);

/** Structural configuration (defaults = paper Table 1). */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 192;
    unsigned lqSize = 32;
    unsigned sqSize = 32;
    unsigned intAlus = 6;
    unsigned fpAlus = 4;
    unsigned mulDivs = 2;
    unsigned memPorts = 2;
    /** Front-end depth: fetch-to-issue latency. */
    unsigned dispatchLatency = 4;
    /** Squash-to-refetch penalty. */
    unsigned redirectPenalty = 5;
    /** Cost added to the clock on a context switch (kernel overhead). */
    Cycle contextSwitchCost = 1000;
    CoreDefense defense = CoreDefense::None;
    BranchPredictorParams bpred;
};

/** Saved architectural state of one software context. */
struct ArchContext
{
    const Program *program = nullptr;
    Asid asid = 0;
    std::uint64_t pc = 0;
    std::array<std::uint64_t, kNumRegs> regs{};
    std::vector<std::uint64_t> callStack;
    bool halted = false;
};

/** Checkpoint an ArchContext minus its Program pointer (pointers do
 *  not survive a process boundary; restore keeps whatever program the
 *  caller installed, and callers re-bind it afterwards). */
void saveArchContext(Serializer &s, const ArchContext &ctx);
void restoreArchContext(Deserializer &d, ArchContext &ctx);

/**
 * One out-of-order core.
 */
class Core
{
  public:
    Core(CoreId id, const CoreParams &params, MemIface *mem,
         StatGroup *parent);

    CoreId id() const { return id_; }
    const CoreParams &params() const { return params_; }
    BranchPredictor &predictor() { return bpred_; }

    /** Install a context (resets per-context pipeline state, keeps the
     *  clock running). */
    void setContext(const ArchContext &ctx);

    /** Save the current architectural state (drains the pipeline). */
    ArchContext saveContext();

    /**
     * Perform a context switch: drain, notify the memory system (filter
     * flush under MuonTrap), charge the switch cost, install `next`.
     */
    void contextSwitch(const ArchContext &next);

    /** True once the running program executed Halt. */
    bool halted() const { return ctx_.halted; }

    /** Route context-switch and squash events into `tracer` (null
     *  disables: the hooks reduce to one predictable branch). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Current front-end cycle (the core's clock). */
    Cycle now() const { return fetchCycle_; }

    /** Push the front-end clock forward to `c` (never backward): the
     *  scheduler parks the core across an idle gang slot. */
    void advanceClockTo(Cycle c)
    {
        if (c > fetchCycle_) {
            fetchCycle_ = c;
            fetchedThisCycle_ = 0;
        }
    }

    /** Cycle at which the last instruction committed. */
    Cycle lastCommitCycle() const { return lastCommitC_; }

    /** Instructions committed since the last stat reset. */
    std::uint64_t committedCount() const { return committed.value(); }

    /** Instructions committed since construction (or carried in by a
     *  restored snapshot); stat resets leave it alone. */
    std::uint64_t committedEver() const { return committedEver_; }

    /**
     * Fetch-execute one instruction (and retire anything that must leave
     * the window). Returns false when halted.
     */
    bool stepOne();

    /**
     * Step until `target_committed` total commits or Halt, with no
     * commit budget (System::run's single-core loop; keeping the loop
     * next to stepOne lets the compiler fuse them).
     */
    void stepLoop(std::uint64_t target_committed)
    {
        while (!ctx_.halted && committed.value() < target_committed)
            stepOne();
    }

    /**
     * Multi-core epoch (System::run): step while this core remains the
     * global minimum — strictly below `second_now`, or equal with the
     * lower core id (`wins_ties`). Always steps at least once. Returns
     * false once halted or `target_committed` is reached (the caller
     * drops the core from its heap), true when the runner-up overtakes.
     */
    bool stepEpoch(std::uint64_t target_committed, bool has_second,
                   Cycle second_now, bool wins_ties)
    {
        do {
            stepOne();
            if (ctx_.halted || committed.value() >= target_committed)
                return false;
        } while (!has_second || fetchCycle_ < second_now ||
                 (fetchCycle_ == second_now && wins_ties));
        return true;
    }

    /** Run until `max_commits` more instructions commit or Halt. */
    std::uint64_t run(std::uint64_t max_commits);

    /** Commit everything in flight. */
    void drain();

    /** Architectural register view (for tests and workload setup). */
    std::uint64_t reg(unsigned idx) const { return ctx_.regs.at(idx); }
    void setReg(unsigned idx, std::uint64_t v) { ctx_.regs.at(idx) = v; }

    /**
     * Checkpoint the full microarchitectural state: architectural
     * context, window ring, store buffer, wrong-path checkpoint, predictor,
     * functional-unit clocks. Nothing is drained first — in-flight
     * wrong-path state rides along, which is what makes a restored run
     * bit-identical to the uninterrupted one. The installed Program
     * pointer is *not* serialized: restoreState keeps whichever program
     * the caller (workload replay) installed and re-binds the decoded
     * stream against it.
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

    /** Swap in `p` as the running context's program and re-bind the
     *  decoded stream. The scheduler's restore path re-attaches each
     *  resident task's program after restoreState. */
    void restoreProgramBinding(const Program *p)
    {
        ctx_.program = p;
        bindDecoded();
    }

  private:
    /** Sliding-window record of one in-flight (or wrong-path)
     *  instruction. Field order keeps the struct at 64 bytes (one cache
     *  line) — one is written per fetch, so its size is fetch-path
     *  memory traffic. The execution-done cycle lives only in fetch
     *  locals: nothing after append reads it. pcIndex is 32-bit —
     *  program sizes are instruction counts, nowhere near 4G. */
    struct WinEntry
    {
        SeqNum seq = 0;
        Cycle commitReadyC = 0;
        Cycle commitC = 0;
        Addr vaddr = kAddrInvalid;
        std::uint64_t storeValue = 0;
        Addr ifetchVaddr = kAddrInvalid;
        std::uint32_t pcIndex = 0;
        OpType type = OpType::Nop;
        bool isLoad = false;
        bool isStore = false;
        bool accessedMemory = false;
        bool tlbMiss = false;
        bool newIfetchLine = false;
    };
    static_assert(sizeof(WinEntry) == 64, "WinEntry must stay one line");

    /** Checkpoint taken at a mispredicted branch. */
    struct Checkpoint
    {
        std::array<std::uint64_t, kNumRegs> regs{};
        std::array<Cycle, kNumRegs> regDone{};
        std::array<Cycle, kNumRegs> regTaint{};
        std::vector<std::uint64_t> callStack;
        std::uint64_t correctPc = 0;
        Cycle resolveAt = 0;
        /** Sequence number of the first wrong-path instruction; squash
         *  discards every window entry with seq >= this. (A size-based
         *  boundary would go stale when commits pop the window front
         *  during wrong-path execution.) */
        SeqNum firstWrongSeq = 0;
        Cycle lastCommitC = 0;
        Cycle commitSlotCycle = 0;
        unsigned commitsInSlot = 0;
        Cycle lastBranchDone = 0;
        Addr lastIfetchLine = kAddrInvalid;
        BranchPredictor::Snapshot bpred;
    };

    /**
     * One class of functional units: per-unit next-free cycles, inline
     * storage (no heap indirection on the per-op scheduling path). An
     * op takes the first earliest-free unit, the lowest index among
     * the units with the smallest next-free cycle (firstMin), and
     * holds it for one cycle (units are pipelined). Timing depends
     * only on the multiset of next-free cycles: every earliest-free
     * unit gives the same start cycle and leaves the same multiset
     * behind. So the chosen index reaches only the snapshot bytes,
     * where the lowest-index tie rule is part of the format.
     */
    struct FuPool
    {
        static constexpr unsigned kMaxUnits = 16;
        std::array<Cycle, kMaxUnits> until{};
        unsigned count = 0;
    };

    // --- pipeline helpers ------------------------------------------------
    /** Fetch-execute one op: per-kind dispatch over the DecodedOp
     *  stream. The functional ISA oracle (tests/fuzz/) checks that only
     *  correct-path work reaches architectural state. */
    void fetchOne();
    Cycle allocFetchSlot();
    Cycle fuAvailable(FuPool &units, Cycle ready);
    Cycle regReady(std::uint8_t r) const;
    Cycle regTaintClear(std::uint8_t r) const;
    std::uint64_t regValue(std::uint8_t r) const;
    void writeReg(std::uint8_t r, std::uint64_t v, Cycle done, Cycle taint);
    /** Functional semantics of one op over the current register file. */
    Addr effectiveAddress(const DecodedOp &op) const;
    bool evalBranch(const DecodedOp &op) const;
    std::uint64_t aluResult(const DecodedOp &op) const;

    inline void appendEntry(WinEntry &e) __attribute__((always_inline));
    void popHead();
    void retireEligible();
    void commitActions(const WinEntry &e);
    /** Discard the wrong path and restore the checkpoint; the fetch
     *  clock moves up to the branch's resolve point. Every
     *  wrong-path stall (serializing op, full window, ret with an empty
     *  call stack, pc off the end) ends here. */
    void squash();
    void enterWrongPath(std::uint64_t correct_pc, Cycle resolve_at);
    void drainAndApplySerializing(OpType type, Cycle done_c);
    /** Per-fetch I-side check: same-line fetches (the overwhelming
     *  majority) fall through after one compare; the I-access charge
     *  lives in the cold half. */
    void
    chargeIfetch(std::uint64_t pc_index, WinEntry &e)
    {
        const Addr va = ctx_.program->pcToVaddr(pc_index);
        if (lineNum(va) != lastIfetchLine_)
            chargeIfetchNewLine(va, e);
    }
    void chargeIfetchNewLine(Addr va, WinEntry &e);

    /** Bind ctx_.program's decoded stream (decoding and caching it on
     *  first sight), or clear it when no program is installed. */
    void bindDecoded();

    /**
     * Devirtualized memory-system shims: when mem_ is the concrete
     * (final) MemSystem — every simulated machine — these call it
     * directly, so LTO can inline the TLB/cache fast paths into the
     * fetch loop. Fakes (unit-test rigs) take the virtual slow path.
     * Definitions live in core.cc, the only user.
     */
    std::uint64_t memRead(Addr vaddr);
    void memWrite(Addr vaddr, std::uint64_t value);
    DataAccessResult memDataAccess(Addr vaddr, Addr pc, bool is_store,
                                   bool speculative, Cycle when);
    Cycle memDataProbe(Addr vaddr, Cycle when);
    bool memDataHitsPrivate(Addr vaddr);
    Cycle memIfetchAccess(Addr vaddr, Cycle when);
    void memCommitData(Addr vaddr, Addr pc, bool is_store,
                       bool tlb_missed, Cycle when);
    void memCommitIfetch(Addr vaddr, Cycle when);

    /** Functional memory read honouring the in-window store buffer. */
    std::uint64_t functionalLoad(Addr vaddr);
    void bufferStore(Addr vaddr, std::uint64_t value, SeqNum seq);
    void unbufferStoresAfter(SeqNum first_squashed);
    void releaseStore(Addr vaddr, SeqNum seq, std::uint64_t value);

    bool inWrongPath() const { return wrongPath_; }

    // --- identity ---------------------------------------------------------
    CoreId id_;
    CoreParams params_;
    MemIface *mem_;
    /** mem_ downcast to the concrete hierarchy when it is one (else
     *  null): the fast side of the shims above. */
    MemSystem *msys_ = nullptr;
    /** Event sink for the tracing hooks; null when tracing is off. */
    Tracer *tracer_ = nullptr;
    BranchPredictor bpred_;

    // --- architectural state -----------------------------------------------
    ArchContext ctx_;
    std::array<Cycle, kNumRegs> regDone_{};
    std::array<Cycle, kNumRegs> regTaint_{};

    // --- fetch / window state ----------------------------------------------
    SeqNum nextSeq_ = 1;
    Cycle fetchCycle_ = 0;
    unsigned fetchedThisCycle_ = 0;
    Addr lastIfetchLine_ = kAddrInvalid;

    /**
     * Decoded stream of the installed program (null while none is
     * installed). Points into decodeCache_'s owned DecodedPrograms; the
     * inner vectors' heap storage is stable across cache growth.
     */
    const DecodedOp *dops_ = nullptr;

    /**
     * Per-core decode cache keyed by (program address, ops storage
     * address, op count, builder stamp): the scheduler reinstalls the
     * same handful of Programs every quantum, so a context switch must
     * not pay a re-decode — while a destroyed program whose addresses
     * get recycled can never match a stale entry (the buildId breaks
     * the tie; see Program::buildId). Small linear scan; cleared
     * wholesale if it ever grows past kDecodeCacheMax.
     */
    struct DecodeSlot
    {
        const Program *prog;
        const MicroOp *storage;
        std::uint64_t size;
        std::uint64_t buildId;
        DecodedProgram dec;
    };
    static constexpr std::size_t kDecodeCacheMax = 64;
    std::vector<DecodeSlot> decodeCache_;

    /**
     * The in-flight window as a fixed ring buffer. Occupancy is bounded
     * by the ROB size, so a power-of-two ring sized at construction
     * replaces std::deque — which allocated and freed chunk nodes
     * continuously as the window advanced through memory.
     */
    std::vector<WinEntry> winBuf_;
    std::size_t winMask_ = 0;
    std::size_t winHead_ = 0;
    std::size_t winCount_ = 0;

    bool winEmpty() const { return winCount_ == 0; }
    std::size_t winSize() const { return winCount_; }
    WinEntry &winFront() { return winBuf_[winHead_ & winMask_]; }
    WinEntry &winBack()
    {
        return winBuf_[(winHead_ + winCount_ - 1) & winMask_];
    }
    /** The (not yet pushed) slot the next fetched entry will occupy;
     *  fetchOne builds the entry in place and appendEntry publishes it
     *  by bumping the count — no 72-byte copy per instruction. */
    WinEntry &winNextSlot()
    {
        return winBuf_[(winHead_ + winCount_) & winMask_];
    }
    void winPopFront() { ++winHead_; --winCount_; }
    void winPopBack() { --winCount_; }

    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;
    Cycle lastCommitC_ = 0;
    Cycle commitSlotCycle_ = 0;
    unsigned commitsInSlot_ = 0;
    Cycle lastBranchDone_ = 0;
    /** Lifetime commits, immune to stat resets (committedEver()). */
    std::uint64_t committedEver_ = 0;

    /** True only for the STT defences: everything else never produces a
     *  nonzero taint, so taint propagation (and its checkpointing) is
     *  skipped wholesale on those cores. */
    bool taintTracked_ = false;

    /**
     * Commit budget for the active run() call: retirement stops once
     * committed.value() reaches this, making run(n) return exactly n
     * for non-halting programs (no commit-width overshoot). Deferred
     * retirements happen on the next run()/drain() with unchanged
     * timestamps and ordering, so the simulated timing stream is
     * identical — only the chunking of bookkeeping changes. stepOne()
     * called outside run() (System::run) sees the no-budget sentinel
     * and behaves exactly as before.
     */
    static constexpr std::uint64_t kNoCommitStop = ~std::uint64_t{0};
    std::uint64_t commitStop_ = kNoCommitStop;
    /** Set when fetchOne() could not proceed without exceeding the
     *  commit budget (serializing op or structural stall at the budget
     *  boundary); run() returns instead of spinning. */
    bool budgetStall_ = false;

    // --- wrong-path state ---------------------------------------------------
    /** The mispredicted branch's checkpoint, live while wrongPath_ is
     *  set. A branch fetched on the wrong path follows its computed
     *  outcome and never checkpoints, so one checkpoint is all the core
     *  ever holds. Its call-stack and RAS vectors keep their heap
     *  storage between uses. */
    Checkpoint spec_;
    bool wrongPath_ = false;

    // --- functional units ----------------------------------------------------
    FuPool intUnits_;
    FuPool fpUnits_;
    FuPool mulUnits_;
    FuPool memUnits_;
    /** DecodedOp::fuSel -> pool (kFuInt/kFuFp/kFuMul order). */
    std::array<FuPool *, 3> fuPools_{};

    // --- store buffer ----------------------------------------------------------
    /**
     * In-flight (uncommitted) stores, in fetch order — which is also
     * sequence-number order, so a squash removes a suffix. Bounded by
     * the SQ size, so linear scans beat any hashed structure and the
     * buffer never allocates after the first few stores.
     */
    struct BufferedStore
    {
        Addr vaddr;
        SeqNum seq;
        std::uint64_t value;
    };
    std::vector<BufferedStore> storeBuffer_;

    /**
     * 64-bit presence filter over buffered store addresses: a load whose
     * address bit is clear cannot forward, so the (per-load) backward
     * scan is skipped entirely. Removals leave the filter a stale
     * superset — still correct, only false positives — and it resets
     * whenever the buffer empties, which store-quiet stretches do
     * constantly.
     */
    std::uint64_t sbPresence_ = 0;

    static unsigned
    sbPresenceBit(Addr vaddr)
    {
        return static_cast<unsigned>(((vaddr >> 3) ^ (vaddr >> 9)) & 63);
    }

    /** Youngest buffered store to `vaddr`, or nullptr. */
    const BufferedStore *findBufferedStore(Addr vaddr) const;

    StatGroup stats_;

  public:
    Counter committed;
    Counter committedLoads;
    Counter committedStores;
    Counter fetched;
    Counter wrongPathFetched;
    Counter wrongPathLoads;
    Counter squashes;
    Counter nackRetries;
    Counter contextSwitches;
    Counter forwardedLoads;
    Counter exposures;
    Counter delayedLoads;
    Counter taintDelayed;
    Average loadLatency;
    Formula ipc;
};

} // namespace mtrap

#endif // MTRAP_CPU_CORE_HH

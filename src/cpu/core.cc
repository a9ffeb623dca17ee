#include "cpu/core.hh"

#include <algorithm>

#include "common/first_min.hh"
#include "common/log.hh"
#include "sim/mem_system.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace.hh"

namespace mtrap
{

namespace
{

/** Mask applied to data virtual addresses (44-bit VA space). */
constexpr Addr kVaMask = (1ull << 44) - 1;

StatSchema &
coreStatSchema()
{
    static StatSchema s("core");
    return s;
}

double
coreIpc(const void *ctx)
{
    const Core *c = static_cast<const Core *>(ctx);
    return c->lastCommitCycle() > 0
               ? static_cast<double>(c->committedCount())
                     / static_cast<double>(c->lastCommitCycle())
               : 0.0;
}

} // namespace

const char *
coreDefenseName(CoreDefense d)
{
    switch (d) {
      case CoreDefense::None: return "none";
      case CoreDefense::SttSpectre: return "stt-spectre";
      case CoreDefense::SttFuture: return "stt-future";
      case CoreDefense::InvisiSpecSpectre: return "invisispec-spectre";
      case CoreDefense::InvisiSpecFuture: return "invisispec-future";
      case CoreDefense::DelayOnMiss: return "delay-on-miss";
    }
    return "?";
}

Core::Core(CoreId id, const CoreParams &params, MemIface *mem,
           StatGroup *parent)
    : id_(id), params_(params), mem_(mem),
      bpred_(params.bpred, parent),
      stats_(coreStatSchema(), StatName::indexed("core", id), parent),
      committed(&stats_, "committed", "instructions committed"),
      committedLoads(&stats_, "committed_loads", "loads committed"),
      committedStores(&stats_, "committed_stores", "stores committed"),
      fetched(&stats_, "fetched", "instructions fetched (any path)"),
      wrongPathFetched(&stats_, "wrong_path_fetched",
                       "wrong-path instructions fetched"),
      wrongPathLoads(&stats_, "wrong_path_loads",
                     "wrong-path loads that accessed memory"),
      squashes(&stats_, "squashes", "pipeline squashes"),
      nackRetries(&stats_, "nack_retries",
                  "loads retried after a coherence NACK"),
      contextSwitches(&stats_, "context_switches", "context switches"),
      forwardedLoads(&stats_, "forwarded_loads",
                     "loads forwarded from the store buffer"),
      exposures(&stats_, "exposures", "InvisiSpec exposure accesses"),
      delayedLoads(&stats_, "delayed_loads",
                   "speculative L1-miss loads delayed until "
                   "non-speculative (delay-on-miss)"),
      taintDelayed(&stats_, "taint_delayed",
                   "loads and stores whose address waited for a "
                   "register's taint to clear (STT)"),
      loadLatency(&stats_, "load_latency", "demand load latency"),
      ipc(&stats_, "ipc", "committed instructions per cycle",
          &coreIpc, this)
{
    if (!mem_)
        fatal("core%u: null memory interface", id);
    msys_ = dynamic_cast<MemSystem *>(mem_);
    if (params.robSize < params.lqSize || params.robSize < params.sqSize)
        fatal("core%u: ROB smaller than LQ/SQ", id);
    if (params.intAlus > FuPool::kMaxUnits ||
        params.fpAlus > FuPool::kMaxUnits ||
        params.mulDivs > FuPool::kMaxUnits ||
        params.memPorts > FuPool::kMaxUnits)
        fatal("core%u: more than %u units of one class", id,
              FuPool::kMaxUnits);
    taintTracked_ = params.defense == CoreDefense::SttSpectre ||
                    params.defense == CoreDefense::SttFuture;
    intUnits_.count = std::max(1u, params.intAlus);
    fpUnits_.count = std::max(1u, params.fpAlus);
    mulUnits_.count = std::max(1u, params.mulDivs);
    memUnits_.count = std::max(1u, params.memPorts);
    fuPools_ = {&intUnits_, &fpUnits_, &mulUnits_};

    // Window ring: power-of-two capacity covering the ROB.
    std::size_t cap = 1;
    while (cap < params.robSize + 1u)
        cap <<= 1;
    winBuf_.resize(cap);
    winMask_ = cap - 1;
}

void
Core::setContext(const ArchContext &ctx)
{
    ctx_ = ctx;
    regDone_.fill(fetchCycle_);
    regTaint_.fill(0);
    lastIfetchLine_ = kAddrInvalid;
    wrongPath_ = false;
    lastBranchDone_ = 0;
    bindDecoded();
}

void
Core::bindDecoded()
{
    dops_ = nullptr;
    if (!ctx_.program)
        return;
    const Program *prog = ctx_.program;
    const std::uint64_t size = prog->ops.size();
    for (DecodeSlot &s : decodeCache_) {
        if (s.prog == prog && s.storage == prog->ops.data() &&
            s.size == size && s.buildId == prog->buildId) {
            dops_ = s.dec.ops.data();
            return;
        }
    }
    if (decodeCache_.size() >= kDecodeCacheMax)
        decodeCache_.clear();
    decodeCache_.push_back(DecodeSlot{prog, prog->ops.data(), size,
                                      prog->buildId,
                                      decodeProgram(*prog)});
    dops_ = decodeCache_.back().dec.ops.data();
}

ArchContext
Core::saveContext()
{
    drain();
    return ctx_;
}

void
Core::contextSwitch(const ArchContext &next)
{
    drain();
    if (tracer_)
        tracer_->record(id_, TraceEventKind::ContextSwitch, fetchCycle_,
                        next.asid, ctx_.asid);
    mem_->onContextSwitch(id_, fetchCycle_);
    fetchCycle_ += params_.contextSwitchCost;
    fetchedThisCycle_ = 0;
    ++contextSwitches;
    setContext(next);
}

// --------------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------------

void
saveArchContext(Serializer &s, const ArchContext &ctx)
{
    s.u32(ctx.asid);
    s.u64(ctx.pc);
    for (std::uint64_t r : ctx.regs)
        s.u64(r);
    s.vec(ctx.callStack);
    s.b(ctx.halted);
}

void
restoreArchContext(Deserializer &d, ArchContext &ctx)
{
    // ctx.program is deliberately untouched: the caller re-installs it.
    ctx.asid = d.u32();
    ctx.pc = d.u64();
    for (std::uint64_t &r : ctx.regs)
        r = d.u64();
    d.vec(ctx.callStack);
    ctx.halted = d.b();
}

namespace
{

void
saveBpredSnapshot(Serializer &s, const BranchPredictor::Snapshot &b)
{
    s.u64(b.globalHistory);
    s.vec(b.ras);
    s.u32(b.rasTop);
}

void
restoreBpredSnapshot(Deserializer &d, BranchPredictor::Snapshot &b)
{
    b.globalHistory = d.u64();
    d.vec(b.ras);
    b.rasTop = d.u32();
}

void
saveFuPool(Serializer &s, const std::array<Cycle, 16> &until)
{
    for (Cycle c : until)
        s.u64(c);
}

void
restoreFuPool(Deserializer &d, std::array<Cycle, 16> &until)
{
    for (Cycle &c : until)
        c = d.u64();
}

} // namespace

void
Core::saveState(Serializer &s) const
{
    // Architectural state.
    saveArchContext(s, ctx_);
    for (Cycle c : regDone_)
        s.u64(c);
    for (Cycle c : regTaint_)
        s.u64(c);

    // Fetch / window clocks.
    s.u64(nextSeq_);
    s.u64(fetchCycle_);
    s.u32(fetchedThisCycle_);
    s.u64(lastIfetchLine_);

    // The in-flight window, oldest first. Entries are 64-byte PODs.
    s.u64(winCount_);
    for (std::size_t i = 0; i < winCount_; ++i)
        s.raw(&winBuf_[(winHead_ + i) & winMask_], sizeof(WinEntry));

    s.u32(loadsInFlight_);
    s.u32(storesInFlight_);
    s.u64(lastCommitC_);
    s.u64(commitSlotCycle_);
    s.u32(commitsInSlot_);
    s.u64(lastBranchDone_);
    s.u64(committedEver_);

    // Wrong-path checkpoint, as a depth of 0 or 1.
    s.u64(wrongPath_ ? 1 : 0);
    if (wrongPath_) {
        const Checkpoint &cp = spec_;
        for (std::uint64_t r : cp.regs)
            s.u64(r);
        for (Cycle c : cp.regDone)
            s.u64(c);
        for (Cycle c : cp.regTaint)
            s.u64(c);
        s.vec(cp.callStack);
        s.u64(cp.correctPc);
        s.u64(cp.resolveAt);
        s.u64(cp.firstWrongSeq);
        s.u64(cp.lastCommitC);
        s.u64(cp.commitSlotCycle);
        s.u32(cp.commitsInSlot);
        s.u64(cp.lastBranchDone);
        s.u64(cp.lastIfetchLine);
        saveBpredSnapshot(s, cp.bpred);
    }

    // Functional-unit next-free clocks (counts are configuration).
    saveFuPool(s, intUnits_.until);
    saveFuPool(s, fpUnits_.until);
    saveFuPool(s, mulUnits_.until);
    saveFuPool(s, memUnits_.until);

    // Store buffer + presence filter.
    s.u64(storeBuffer_.size());
    for (const BufferedStore &b : storeBuffer_) {
        s.u64(b.vaddr);
        s.u64(b.seq);
        s.u64(b.value);
    }
    s.u64(sbPresence_);

    bpred_.saveState(s);
}

void
Core::restoreState(Deserializer &d)
{
    restoreArchContext(d, ctx_);
    for (Cycle &c : regDone_)
        c = d.u64();
    for (Cycle &c : regTaint_)
        c = d.u64();

    nextSeq_ = d.u64();
    fetchCycle_ = d.u64();
    fetchedThisCycle_ = d.u32();
    lastIfetchLine_ = d.u64();

    const std::uint64_t wc = d.u64();
    if (wc > winBuf_.size())
        throw SnapshotError("window occupancy exceeds ROB capacity");
    winHead_ = 0;
    winCount_ = static_cast<std::size_t>(wc);
    for (std::size_t i = 0; i < winCount_; ++i)
        d.raw(&winBuf_[i], sizeof(WinEntry));

    loadsInFlight_ = d.u32();
    storesInFlight_ = d.u32();
    lastCommitC_ = d.u64();
    commitSlotCycle_ = d.u64();
    commitsInSlot_ = d.u32();
    lastBranchDone_ = d.u64();
    committedEver_ = d.u64();

    const std::uint64_t depth = d.u64();
    if (depth > 1)
        throw SnapshotError("checkpoint depth above 1");
    wrongPath_ = depth == 1;
    if (wrongPath_) {
        Checkpoint &cp = spec_;
        for (std::uint64_t &r : cp.regs)
            r = d.u64();
        for (Cycle &c : cp.regDone)
            c = d.u64();
        for (Cycle &c : cp.regTaint)
            c = d.u64();
        d.vec(cp.callStack);
        cp.correctPc = d.u64();
        cp.resolveAt = d.u64();
        cp.firstWrongSeq = d.u64();
        cp.lastCommitC = d.u64();
        cp.commitSlotCycle = d.u64();
        cp.commitsInSlot = d.u32();
        cp.lastBranchDone = d.u64();
        cp.lastIfetchLine = d.u64();
        restoreBpredSnapshot(d, cp.bpred);
    }

    restoreFuPool(d, intUnits_.until);
    restoreFuPool(d, fpUnits_.until);
    restoreFuPool(d, mulUnits_.until);
    restoreFuPool(d, memUnits_.until);

    const std::uint64_t sb = d.u64();
    if (sb > params_.sqSize)
        throw SnapshotError("store-buffer occupancy exceeds SQ capacity");
    storeBuffer_.clear();
    storeBuffer_.reserve(sb);
    for (std::uint64_t i = 0; i < sb; ++i) {
        BufferedStore b;
        b.vaddr = d.u64();
        b.seq = d.u64();
        b.value = d.u64();
        storeBuffer_.push_back(b);
    }
    sbPresence_ = d.u64();

    bpred_.restoreState(d);

    // Restore never carries a commit budget: that belongs to the active
    // run() call, not the machine.
    commitStop_ = kNoCommitStop;
    budgetStall_ = false;

    // The decode cache is observably transparent; drop it and re-bind
    // the (caller-installed) program's decoded stream.
    decodeCache_.clear();
    bindDecoded();
}

// --------------------------------------------------------------------------
// Devirtualized memory-system shims (see core.hh)
// --------------------------------------------------------------------------

std::uint64_t
Core::memRead(Addr vaddr)
{
    return msys_ ? msys_->read(id_, ctx_.asid, vaddr)
                 : mem_->read(id_, ctx_.asid, vaddr);
}

void
Core::memWrite(Addr vaddr, std::uint64_t value)
{
    if (msys_)
        msys_->write(ctx_.asid, vaddr, value);
    else
        mem_->write(ctx_.asid, vaddr, value);
}

DataAccessResult
Core::memDataAccess(Addr vaddr, Addr pc, bool is_store, bool speculative,
                    Cycle when)
{
    return msys_ ? msys_->dataAccess(id_, ctx_.asid, vaddr, pc, is_store,
                                     speculative, when)
                 : mem_->dataAccess(id_, ctx_.asid, vaddr, pc, is_store,
                                    speculative, when);
}

Cycle
Core::memDataProbe(Addr vaddr, Cycle when)
{
    return msys_ ? msys_->dataProbe(id_, ctx_.asid, vaddr, when)
                 : mem_->dataProbe(id_, ctx_.asid, vaddr, when);
}

bool
Core::memDataHitsPrivate(Addr vaddr)
{
    return msys_ ? msys_->dataHitsPrivate(id_, ctx_.asid, vaddr)
                 : mem_->dataHitsPrivate(id_, ctx_.asid, vaddr);
}

Cycle
Core::memIfetchAccess(Addr vaddr, Cycle when)
{
    return msys_ ? msys_->ifetchAccess(id_, ctx_.asid, vaddr, when)
                 : mem_->ifetchAccess(id_, ctx_.asid, vaddr, when);
}

void
Core::memCommitData(Addr vaddr, Addr pc, bool is_store, bool tlb_missed,
                    Cycle when)
{
    if (msys_)
        msys_->commitData(id_, ctx_.asid, vaddr, pc, is_store, tlb_missed,
                          when);
    else
        mem_->commitData(id_, ctx_.asid, vaddr, pc, is_store, tlb_missed,
                         when);
}

void
Core::memCommitIfetch(Addr vaddr, Cycle when)
{
    if (msys_)
        msys_->commitIfetch(id_, ctx_.asid, vaddr, when);
    else
        mem_->commitIfetch(id_, ctx_.asid, vaddr, when);
}

// --------------------------------------------------------------------------
// Register / value helpers
// --------------------------------------------------------------------------

Cycle
Core::regReady(std::uint8_t r) const
{
    return r == kNoReg ? 0 : regDone_[r];
}

Cycle
Core::regTaintClear(std::uint8_t r) const
{
    return r == kNoReg ? 0 : regTaint_[r];
}

std::uint64_t
Core::regValue(std::uint8_t r) const
{
    return r == kNoReg ? 0 : ctx_.regs[r];
}

void
Core::writeReg(std::uint8_t r, std::uint64_t v, Cycle done, Cycle taint)
{
    if (r == kNoReg)
        return;
    ctx_.regs[r] = v;
    regDone_[r] = done;
    regTaint_[r] = taint;
}

Addr
Core::effectiveAddress(const DecodedOp &op) const
{
    Addr a = regValue(op.base) + static_cast<Addr>(op.imm);
    if (op.index != kNoReg)
        a += regValue(op.index) << op.scale;
    return (a & kVaMask) & ~static_cast<Addr>(7);
}

bool
Core::evalBranch(const DecodedOp &op) const
{
    const std::int64_t a = static_cast<std::int64_t>(regValue(op.src1));
    const std::int64_t b = static_cast<std::int64_t>(regValue(op.src2));
    const std::uint64_t ua = regValue(op.src1);
    const std::uint64_t ub = regValue(op.src2);
    switch (op.cond) {
      case BranchCond::Eq: return a == b;
      case BranchCond::Ne: return a != b;
      case BranchCond::Lt: return a < b;
      case BranchCond::Ge: return a >= b;
      case BranchCond::Ult: return ua < ub;
      case BranchCond::Uge: return ua >= ub;
      case BranchCond::Always: return true;
    }
    return true;
}

std::uint64_t
Core::aluResult(const DecodedOp &op) const
{
    const std::uint64_t a = regValue(op.src1);
    const std::uint64_t b = op.src2 != kNoReg
                                ? regValue(op.src2)
                                : static_cast<std::uint64_t>(op.imm);
    switch (op.alu) {
      case AluOp::Add: return a + b;
      case AluOp::Sub: return a - b;
      case AluOp::And: return a & b;
      case AluOp::Or: return a | b;
      case AluOp::Xor: return a ^ b;
      case AluOp::Shl: return a << (b & 63);
      case AluOp::Shr: return a >> (b & 63);
      case AluOp::Mov: return a;
      case AluOp::MovImm: return static_cast<std::uint64_t>(op.imm);
      case AluOp::Mul: return a * b;
      case AluOp::Div: return b ? a / b : a;
    }
    return 0;
}

// --------------------------------------------------------------------------
// Store buffer (functional wrong-path isolation + forwarding)
// --------------------------------------------------------------------------

const Core::BufferedStore *
Core::findBufferedStore(Addr vaddr) const
{
    if (!(sbPresence_ & (1ull << sbPresenceBit(vaddr))))
        return nullptr;
    // Backwards: the youngest store to the address wins (forwarding).
    for (auto it = storeBuffer_.rbegin(); it != storeBuffer_.rend(); ++it)
        if (it->vaddr == vaddr)
            return &*it;
    return nullptr;
}

std::uint64_t
Core::functionalLoad(Addr vaddr)
{
    if (const BufferedStore *s = findBufferedStore(vaddr))
        return s->value;
    return memRead(vaddr);
}

void
Core::bufferStore(Addr vaddr, std::uint64_t value, SeqNum seq)
{
    storeBuffer_.push_back(BufferedStore{vaddr, seq, value});
    sbPresence_ |= 1ull << sbPresenceBit(vaddr);
}

void
Core::unbufferStoresAfter(SeqNum first_squashed)
{
    // Sequence numbers only grow along the buffer: wrong-path stores are
    // a suffix.
    while (!storeBuffer_.empty() &&
           storeBuffer_.back().seq >= first_squashed)
        storeBuffer_.pop_back();
    if (storeBuffer_.empty())
        sbPresence_ = 0;
}

void
Core::releaseStore(Addr vaddr, SeqNum seq, std::uint64_t value)
{
    memWrite(vaddr, value);
    // Commits run in sequence order, so the released store sits at (or
    // very near) the front.
    for (auto it = storeBuffer_.begin(); it != storeBuffer_.end(); ++it) {
        if (it->seq == seq) {
            storeBuffer_.erase(it);
            break;
        }
    }
    if (storeBuffer_.empty())
        sbPresence_ = 0;
}

// --------------------------------------------------------------------------
// Structural helpers
// --------------------------------------------------------------------------

Cycle
Core::allocFetchSlot()
{
    if (fetchedThisCycle_ >= params_.fetchWidth) {
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
    }
    ++fetchedThisCycle_;
    return fetchCycle_;
}

Cycle
Core::fuAvailable(FuPool &units, Cycle ready)
{
    const FirstMin unit = firstMin(units.until.data(), units.count);
    const Cycle start = std::max(unit.value, ready);
    units.until[unit.index] = start + 1; // one op per cycle (pipelined)
    return start;
}

// --------------------------------------------------------------------------
// Window management
// --------------------------------------------------------------------------

void
Core::appendEntry(WinEntry &e)
{
    // In-order commit: 'commitWidth' per cycle, after commitReadyC.
    Cycle c = std::max(e.commitReadyC + 1, lastCommitC_);
    if (c == commitSlotCycle_ && commitsInSlot_ >= params_.commitWidth)
        ++c;
    if (c != commitSlotCycle_) {
        commitSlotCycle_ = c;
        commitsInSlot_ = 0;
    }
    ++commitsInSlot_;
    e.commitC = c;
    lastCommitC_ = c;

    if (e.isLoad)
        ++loadsInFlight_;
    if (e.isStore)
        ++storesInFlight_;
    // `e` already lives in the ring's next slot; publish it.
    ++winCount_;
}

void
Core::popHead()
{
    WinEntry &e = winFront();
    commitActions(e);
    if (e.isLoad)
        --loadsInFlight_;
    if (e.isStore)
        --storesInFlight_;
    winPopFront();
}

void
Core::commitActions(const WinEntry &e)
{
    ++committed;
    ++committedEver_;
    if (e.isLoad)
        ++committedLoads;
    if (e.isStore) {
        ++committedStores;
        releaseStore(e.vaddr, e.seq, e.storeValue);
    }
    if (e.accessedMemory) {
        memCommitData(e.vaddr, e.pcIndex, e.isStore, e.tlbMiss,
                      e.commitC);
    }
    if (e.newIfetchLine)
        memCommitIfetch(e.ifetchVaddr, e.commitC);
}

void
Core::drain()
{
    // A pending misprediction is resolved first: its wrong path is
    // squashed, never committed.
    if (inWrongPath())
        squash();
    while (!winEmpty())
        popHead();
    if (lastCommitC_ > fetchCycle_) {
        fetchCycle_ = lastCommitC_;
        fetchedThisCycle_ = 0;
    }
}

// --------------------------------------------------------------------------
// Speculation
// --------------------------------------------------------------------------

void
Core::enterWrongPath(std::uint64_t correct_pc, Cycle resolve_at)
{
    wrongPath_ = true;
    Checkpoint &chk = spec_;
    chk.regs = ctx_.regs;
    chk.regDone = regDone_;
    if (taintTracked_)
        chk.regTaint = regTaint_;
    chk.callStack = ctx_.callStack;
    chk.correctPc = correct_pc;
    chk.resolveAt = resolve_at;
    chk.firstWrongSeq = nextSeq_;
    chk.lastCommitC = lastCommitC_;
    chk.commitSlotCycle = commitSlotCycle_;
    chk.commitsInSlot = commitsInSlot_;
    chk.lastBranchDone = lastBranchDone_;
    chk.lastIfetchLine = lastIfetchLine_;
    bpred_.snapshotInto(chk.bpred);
}

void
Core::squash()
{
    const Checkpoint &chk = spec_;

    // Discard wrong-path entries from the window tail, fixing up the
    // in-flight load/store occupancy as they go (the wrong path can be
    // a whole ROB's worth of entries; walk the ring directly).
    std::size_t n = winCount_;
    while (n > 0) {
        const WinEntry &e = winBuf_[(winHead_ + n - 1) & winMask_];
        if (e.seq < chk.firstWrongSeq)
            break;
        if (e.isLoad)
            --loadsInFlight_;
        if (e.isStore)
            --storesInFlight_;
        --n;
    }
    winCount_ = n;
    unbufferStoresAfter(chk.firstWrongSeq);

    ctx_.regs = chk.regs;
    regDone_ = chk.regDone;
    if (taintTracked_)
        regTaint_ = chk.regTaint;
    ctx_.callStack = chk.callStack;
    ctx_.pc = chk.correctPc;
    lastCommitC_ = chk.lastCommitC;
    commitSlotCycle_ = chk.commitSlotCycle;
    commitsInSlot_ = chk.commitsInSlot;
    lastBranchDone_ = std::max(chk.lastBranchDone, chk.resolveAt);
    lastIfetchLine_ = chk.lastIfetchLine;
    bpred_.restore(chk.bpred);

    fetchCycle_ = std::max(fetchCycle_, chk.resolveAt);
    fetchedThisCycle_ = 0;

    ++squashes;
    if (tracer_)
        tracer_->record(id_, TraceEventKind::Squash, fetchCycle_,
                        chk.correctPc);
    mem_->onSquash(id_, fetchCycle_);
    wrongPath_ = false;
}

// --------------------------------------------------------------------------
// Serializing ops
// --------------------------------------------------------------------------

void
Core::drainAndApplySerializing(OpType type, Cycle done_c)
{
    drain();
    const Cycle when = std::max(done_c, lastCommitC_);
    switch (type) {
      case OpType::Syscall:
        mem_->onSyscall(id_, when);
        break;
      case OpType::SandboxEnter:
      case OpType::SandboxExit:
        mem_->onSandboxSwitch(id_, when);
        break;
      case OpType::FlushBarrier:
        mem_->onFlushBarrier(id_, when);
        break;
      case OpType::Halt:
        ctx_.halted = true;
        break;
      default:
        panic("not a serializing op: %s", opTypeName(type));
    }
    fetchCycle_ = std::max(fetchCycle_, when + opLatency(type));
    fetchedThisCycle_ = 0;
    lastCommitC_ = std::max(lastCommitC_, fetchCycle_);
    ++committed;
    ++committedEver_;
}

// --------------------------------------------------------------------------
// Instruction fetch (I-side access)
// --------------------------------------------------------------------------

void
Core::chargeIfetchNewLine(Addr va, WinEntry &e)
{
    lastIfetchLine_ = lineNum(va);
    const Cycle lat = memIfetchAccess(va, fetchCycle_);
    // A 1-cycle hit is hidden by the pipelined front end; anything more
    // stalls fetch.
    if (lat > 1) {
        fetchCycle_ += lat - 1;
        fetchedThisCycle_ = 0;
    }
    e.newIfetchLine = true;
    e.ifetchVaddr = va;
}

// --------------------------------------------------------------------------
// Main fetch-execute step
// --------------------------------------------------------------------------

void
Core::retireEligible()
{
    // Retire entries whose commit time has passed the front-end clock.
    // This keeps the *simulation order* of commit actions (filter-line
    // write-throughs, prefetch notifications) aligned with their time
    // stamps: without it, a whole ROB's worth of younger accesses would
    // hit the caches before an older instruction's commit actions ran.
    // Never retire wrong-path entries — they are squashed, not
    // committed.
    const SeqNum barrier = inWrongPath()
                               ? spec_.firstWrongSeq
                               : nextSeq_;
    while (!winEmpty() && winFront().seq < barrier &&
           winFront().commitC <= fetchCycle_ &&
           committed.value() < commitStop_) {
        popHead();
    }
}

bool
Core::stepOne()
{
    if (ctx_.halted || !ctx_.program)
        return false;

    // Wrong-path termination: once the front end's clock passes the
    // resolve point of the mispredicted branch, squash.
    if (inWrongPath() && fetchCycle_ >= spec_.resolveAt) {
        squash();
        return true;
    }

    retireEligible();
    fetchOne();
    return !ctx_.halted;
}

std::uint64_t
Core::run(std::uint64_t max_commits)
{
    const std::uint64_t start = committed.value();
    const std::uint64_t stop =
        max_commits > kNoCommitStop - start ? kNoCommitStop
                                            : start + max_commits;
    commitStop_ = stop;
    budgetStall_ = false;
    while (!ctx_.halted && !budgetStall_ && committed.value() < stop)
        stepOne();
    commitStop_ = kNoCommitStop;
    budgetStall_ = false;
    return committed.value() - start;
}

void
Core::fetchOne()
{
    const Program &prog = *ctx_.program;
    if (ctx_.pc >= prog.size()) {
        // Off the end on the wrong path: stall until the squash, like a
        // serializing op.
        if (inWrongPath()) {
            squash();
            return;
        }
        warn("core%u: pc %llu fell off program %s; halting", id_,
             static_cast<unsigned long long>(ctx_.pc), prog.name.c_str());
        drain();
        ctx_.halted = true;
        return;
    }

    const DecodedOp &op = dops_[ctx_.pc];
    const std::uint64_t pc = ctx_.pc;

    // Serializing ops never execute speculatively: on the wrong path
    // they stall fetch until the squash; on the correct path they drain
    // and apply their effect in program order.
    if (op.kind == OpKind::Serial) {
        if (inWrongPath()) {
            squash();
            return;
        }
        // The implied drain would blow the commit budget: retire what
        // the budget still allows and stop; a later run() fetches the
        // op. The deferred commit actions keep their timestamps, so the
        // simulation stream is unchanged.
        if (committed.value() + winSize() + 1 > commitStop_) {
            while (!winEmpty() && committed.value() < commitStop_)
                popHead();
            budgetStall_ = true;
            return;
        }
        // Timing: the op issues after its fetch and all older work.
        const Cycle fc = allocFetchSlot();
        ++fetched;
        drainAndApplySerializing(op.type, std::max(fc, lastCommitC_));
        ctx_.pc = pc + 1;
        return;
    }

    // Structural stalls: ROB, LQ, SQ.
    while (winSize() >= params_.robSize ||
           (op.kind == OpKind::Load && loadsInFlight_ >= params_.lqSize) ||
           (op.kind == OpKind::Store &&
            storesInFlight_ >= params_.sqSize)) {
        if (committed.value() >= commitStop_) {
            // Making room would exceed the commit budget.
            budgetStall_ = true;
            return;
        }
        if (winEmpty())
            panic("core%u: structural stall with empty window", id_);
        // Only wrong-path work is left to retire: it can never commit,
        // so the stall lasts until the branch resolves and squashes.
        if (inWrongPath() &&
            winFront().seq >= spec_.firstWrongSeq) {
            squash();
            return;
        }
        if (fetchCycle_ < winFront().commitC) {
            fetchCycle_ = winFront().commitC;
            fetchedThisCycle_ = 0;
            // The stall may have pushed us past a pending resolve point.
            if (inWrongPath() &&
                fetchCycle_ >= spec_.resolveAt) {
                squash();
                return;
            }
        }
        popHead();
    }

    const Cycle fc = allocFetchSlot();
    ++fetched;
    if (inWrongPath())
        ++wrongPathFetched;

    // Build the entry in its ring slot. Only the fields every path
    // reads are reset; vaddr/storeValue/ifetchVaddr are written
    // by exactly the paths that later read them (guarded by the flags
    // cleared here), so the stale slot contents are never observed.
    WinEntry &e = winNextSlot();
    e.seq = nextSeq_++;
    e.pcIndex = static_cast<std::uint32_t>(pc);
    e.type = op.type;
    e.commitReadyC = 0;
    e.isLoad = false;
    e.isStore = false;
    e.accessedMemory = false;
    e.tlbMiss = false;
    e.newIfetchLine = false;

    chargeIfetch(pc, e);

    const Cycle dispatch = fc + params_.dispatchLatency;
    std::uint64_t next_pc = pc + 1;
    Cycle done_c = 0;

    switch (op.kind) {
      case OpKind::Nop:
        done_c = dispatch;
        break;

      case OpKind::Alu: {
        const Cycle ready = std::max({dispatch, regReady(op.src1),
                                      regReady(op.src2)});
        const Cycle start = fuAvailable(*fuPools_[op.fuSel], ready);
        done_c = start + op.latency;
        const Cycle taint =
            taintTracked_ ? std::max(regTaintClear(op.src1),
                                     regTaintClear(op.src2))
                          : 0;
        writeReg(op.dst, aluResult(op), done_c, taint);
        break;
      }

      case OpKind::Load:
      case OpKind::Store: {
        const Addr va = effectiveAddress(op);
        e.vaddr = va;

        Cycle addr_ready = std::max({dispatch, regReady(op.base),
                                     regReady(op.index)});
        // STT: transmitters (loads/stores) with tainted address operands
        // are delayed until the taint clears.
        if (taintTracked_) {
            const Cycle taint_clear = std::max(regTaintClear(op.base),
                                               regTaintClear(op.index));
            if (taint_clear > addr_ready) {
                addr_ready = taint_clear;
                ++taintDelayed;
            }
        }
        const Cycle issue = fuAvailable(memUnits_, addr_ready);

        // A wrong-path memory op whose issue time falls after the
        // mispredicted branch resolves never reaches the cache: the
        // squash kills it first. Modelling this matters — without it the
        // wrong path would inject far more cache traffic than real
        // hardware can.
        const bool squashed_before_issue =
            inWrongPath() && issue >= spec_.resolveAt;

        if (op.kind == OpKind::Store) {
            e.isStore = true;
            const Cycle data_ready = std::max(issue, regReady(op.src1));
            e.storeValue = regValue(op.src1);
            bufferStore(va, e.storeValue, e.seq);
            if (!squashed_before_issue) {
                // Execute-time line prefetch (exclusive in baseline,
                // shared under MuonTrap); the write happens at commit.
                DataAccessResult r = memDataAccess(
                    va, pc, /*is_store=*/true, /*speculative=*/true,
                    issue);
                e.accessedMemory = true;
                e.tlbMiss = r.tlbMiss;
            }
            // Store completion does not wait for the prefetch; address +
            // data availability retire the op.
            done_c = data_ready + 1;
        } else {
            e.isLoad = true;
            // Store-to-load forwarding.
            if (const BufferedStore *s = findBufferedStore(va)) {
                ++forwardedLoads;
                done_c = issue + 1;
                writeReg(op.dst, s->value, done_c,
                         taintTracked_ ? regTaintClear(op.base) : 0);
                break;
            }

            const std::uint64_t value = memRead(va);
            Cycle done;
            bool accessed = true;

            if (squashed_before_issue) {
                // Issues too late to beat the squash: no cache access.
                e.accessedMemory = false;
                done_c = spec_.resolveAt;
                writeReg(op.dst, value, done_c, 0);
                break;
            }

            // A load sits in the speculative shadow while an unresolved
            // (mispredicted, still in flight) branch is older than it,
            // or while it issues before an already-resolved branch's
            // resolution cycle. Wrong-path loads are *always* shadowed:
            // without the inWrongPath() term the defences below would
            // be inert exactly on the attack path, because the
            // mispredicted branch only updates lastBranchDone_ at the
            // squash.
            const bool spec_shadow =
                inWrongPath() || lastBranchDone_ > issue;
            const bool is_invisispec =
                params_.defense == CoreDefense::InvisiSpecSpectre ||
                params_.defense == CoreDefense::InvisiSpecFuture;
            if (is_invisispec && spec_shadow) {
                // Speculative InvisiSpec load: non-mutating probe now,
                // mutating exposure at the visibility point.
                const Cycle probe_lat = memDataProbe(va, issue);
                done = issue + probe_lat;
                if (inWrongPath()) {
                    // The exposure point falls after the squash: the
                    // spec-buffer entry is dropped there and the
                    // hierarchy is never touched.
                    accessed = false;
                } else {
                    const Cycle expose_start =
                        params_.defense == CoreDefense::InvisiSpecSpectre
                            ? std::max(done, lastBranchDone_)
                            : std::max(done, lastCommitC_);
                    DataAccessResult er = memDataAccess(
                        va, pc, false, false, expose_start);
                    ++exposures;
                    e.commitReadyC = expose_start + er.latency;
                    e.tlbMiss = er.tlbMiss;
                }
            } else if (params_.defense == CoreDefense::DelayOnMiss &&
                       spec_shadow && !memDataHitsPrivate(va)) {
                // Delay-on-miss: private-hierarchy hits proceed below;
                // a shadowed miss waits until it is non-speculative.
                ++delayedLoads;
                if (inWrongPath()) {
                    // Stalls past the squash: never reaches the caches.
                    done = spec_.resolveAt;
                    accessed = false;
                } else {
                    const Cycle start = std::max(issue, lastBranchDone_);
                    DataAccessResult r = memDataAccess(
                        va, pc, false, /*speculative=*/false, start);
                    done = start + r.latency;
                    e.tlbMiss = r.tlbMiss;
                }
            } else {
                DataAccessResult r = memDataAccess(
                    va, pc, false, /*speculative=*/true, issue);
                if (r.nacked) {
                    if (inWrongPath()) {
                        // Never becomes non-speculative; completes only
                        // notionally, squashed before commit.
                        done = spec_.resolveAt;
                        accessed = false;
                    } else {
                        // Retry once the access is definitely going to
                        // execute (§4.5: "at the front of the
                        // instruction queue"): all older branches have
                        // resolved by then.
                        ++nackRetries;
                        const Cycle retry =
                            std::max(issue, lastBranchDone_) + 1;
                        DataAccessResult r2 = memDataAccess(
                            va, pc, false, /*speculative=*/false, retry);
                        done = retry + r2.latency;
                        e.tlbMiss = r2.tlbMiss;
                    }
                } else {
                    done = issue + r.latency;
                    e.tlbMiss = r.tlbMiss;
                }
            }
            e.accessedMemory = accessed;
            done_c = done;
            loadLatency.sample(static_cast<double>(done_c - issue));
            if (inWrongPath())
                ++wrongPathLoads;

            // STT taint: the loaded value is tainted until the load is
            // no longer speculative. On the wrong path that point is
            // the squash itself, so the taint lower-bounds at the
            // resolve cycle — dependent transmitters issue too late to
            // beat the squash.
            Cycle taint = 0;
            if (params_.defense == CoreDefense::SttSpectre)
                taint = std::max({lastBranchDone_, done,
                                  inWrongPath()
                                      ? spec_.resolveAt
                                      : 0});
            else if (params_.defense == CoreDefense::SttFuture)
                taint = std::max({lastCommitC_, done,
                                  inWrongPath()
                                      ? spec_.resolveAt
                                      : 0});
            writeReg(op.dst, value, done, taint);
        }
        break;
      }

      case OpKind::BraAlways: {
        // Like a conditional branch, an always-taken one reserves an
        // ALU slot and folds its (possibly set) source registers into
        // readiness; it just never consults the predictor.
        const Cycle ready = std::max({dispatch, regReady(op.src1),
                                      regReady(op.src2)});
        const Cycle start = fuAvailable(intUnits_, ready);
        done_c = start + 1;
        next_pc = op.target();
        break;
      }

      case OpKind::BraCond: {
        const Cycle ready = std::max({dispatch, regReady(op.src1),
                                      regReady(op.src2)});
        const Cycle start = fuAvailable(intUnits_, ready);
        done_c = start + 1;
        const bool actual = evalBranch(op);
        const bool predicted = bpred_.predictDirection(pc);
        if (!inWrongPath())
            bpred_.trainDirection(pc, actual);
        if (predicted == actual || inWrongPath()) {
            next_pc = actual ? op.target() : pc + 1;
            lastBranchDone_ = std::max(lastBranchDone_, done_c);
        } else {
            ++bpred_.mispredicts;
            const std::uint64_t correct = actual ? op.target() : pc + 1;
            const std::uint64_t wrong = actual ? pc + 1 : op.target();
            const Cycle resolve = done_c + params_.redirectPenalty;
            e.commitReadyC = done_c;
            appendEntry(e);
            enterWrongPath(correct, resolve);
            ctx_.pc = wrong;
            return;
        }
        break;
      }

      case OpKind::Jump: {
        const Cycle ready = std::max(dispatch, regReady(op.base));
        const Cycle start = fuAvailable(intUnits_, ready);
        done_c = start + 1;
        std::uint64_t actual = regValue(op.base);
        if (actual >= prog.size())
            actual = prog.size() - 1; // clamp wrong-path garbage
        const Addr predicted = bpred_.predictTarget(pc);
        if (!inWrongPath())
            bpred_.trainTarget(pc, actual);
        if (predicted == kAddrInvalid) {
            // No BTB entry: the front end stalls until resolution.
            next_pc = actual;
            fetchCycle_ = std::max(fetchCycle_,
                                   done_c + params_.redirectPenalty);
            fetchedThisCycle_ = 0;
            lastBranchDone_ = std::max(lastBranchDone_, done_c);
        } else if (predicted == actual || inWrongPath()) {
            next_pc = actual;
            lastBranchDone_ = std::max(lastBranchDone_, done_c);
        } else {
            ++bpred_.mispredicts;
            const Cycle resolve = done_c + params_.redirectPenalty;
            e.commitReadyC = done_c;
            appendEntry(e);
            enterWrongPath(actual, resolve);
            ctx_.pc = predicted;   // speculate down the BTB target
            return;
        }
        break;
      }

      case OpKind::Call: {
        const Cycle start = fuAvailable(intUnits_, dispatch);
        done_c = start + 1;
        bpred_.pushReturn(pc + 1);
        ctx_.callStack.push_back(pc + 1);
        next_pc = op.target();
        break;
      }

      case OpKind::Ret: {
        const Cycle start = fuAvailable(intUnits_, dispatch);
        done_c = start + 1;
        if (ctx_.callStack.empty()) {
            // Wrong path: stall until the squash, like a serializing op.
            if (inWrongPath()) {
                squash();
                return;
            }
            warn("core%u: return with empty call stack; halting", id_);
            drain();
            ctx_.halted = true;
            return;
        }
        const std::uint64_t actual = ctx_.callStack.back();
        ctx_.callStack.pop_back();
        const Addr predicted = bpred_.popReturn();
        if (predicted == actual || inWrongPath() ||
            predicted == kAddrInvalid) {
            next_pc = actual;
            if (predicted == kAddrInvalid) {
                fetchCycle_ = std::max(fetchCycle_,
                                       done_c + params_.redirectPenalty);
                fetchedThisCycle_ = 0;
            }
            lastBranchDone_ = std::max(lastBranchDone_, done_c);
        } else {
            ++bpred_.mispredicts;
            const Cycle resolve = done_c + params_.redirectPenalty;
            e.commitReadyC = done_c;
            appendEntry(e);
            enterWrongPath(actual, resolve);
            ctx_.pc = predicted;
            return;
        }
        break;
      }

      default:
        panic("unhandled op kind %u", static_cast<unsigned>(op.kind));
    }

    if (e.commitReadyC < done_c)
        e.commitReadyC = done_c;
    appendEntry(e);
    ctx_.pc = next_pc;
}

} // namespace mtrap

/**
 * @file
 * Unit tests for the out-of-order core: functional correctness of the
 * micro-ISA, wrong-path execution and squash recovery, store buffering,
 * serializing ops and structural limits. Uses a scriptable fake memory
 * interface so behaviour is observable without the full hierarchy.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cpu/core.hh"

namespace mtrap
{
namespace
{

/** Recording in-memory MemIface with fixed latency. */
class FakeMem : public MemIface
{
  public:
    Cycle fixedLatency = 10;

    struct Rec
    {
        Addr vaddr;
        bool isStore;
        bool speculative;
        Cycle when;
    };
    std::vector<Rec> accesses;
    std::vector<Addr> commits;
    std::vector<Addr> ifetches;
    unsigned syscalls = 0;
    unsigned sandboxSwitches = 0;
    unsigned ctxSwitches = 0;
    unsigned squashes = 0;
    unsigned flushBarriers = 0;
    bool nackFirstAccessTo = false;
    Addr nackTarget = kAddrInvalid;
    unsigned nacksIssued = 0;
    /** Answer for dataHitsPrivate (drives delay-on-miss). */
    bool privateHits = true;

    DataAccessResult
    dataAccess(CoreId, Asid, Addr vaddr, Addr, bool is_store,
               bool speculative, Cycle when) override
    {
        accesses.push_back({vaddr, is_store, speculative, when});
        DataAccessResult r;
        r.latency = fixedLatency;
        if (nackFirstAccessTo && vaddr == nackTarget && speculative) {
            r.nacked = true;
            ++nacksIssued;
        }
        return r;
    }

    Cycle dataProbe(CoreId, Asid, Addr, Cycle) override { return 5; }
    bool dataHitsPrivate(CoreId, Asid, Addr) override { return privateHits; }

    Cycle
    ifetchAccess(CoreId, Asid, Addr vaddr, Cycle) override
    {
        ifetches.push_back(vaddr);
        return 1;
    }

    void
    commitData(CoreId, Asid, Addr vaddr, Addr, bool, bool, Cycle) override
    {
        commits.push_back(vaddr);
    }

    void commitIfetch(CoreId, Asid, Addr, Cycle) override {}
    void onSyscall(CoreId, Cycle) override { ++syscalls; }
    void onSandboxSwitch(CoreId, Cycle) override { ++sandboxSwitches; }
    void onContextSwitch(CoreId, Cycle) override { ++ctxSwitches; }
    void onFlushBarrier(CoreId, Cycle) override { ++flushBarriers; }
    void onSquash(CoreId, Cycle) override { ++squashes; }

    std::uint64_t
    read(Asid, Addr vaddr) override
    {
        auto it = store_.find(vaddr);
        return it != store_.end() ? it->second : 0;
    }

    void
    write(Asid, Addr vaddr, std::uint64_t v) override
    {
        store_[vaddr] = v;
    }

  private:
    std::map<Addr, std::uint64_t> store_;
};

struct CoreRig
{
    explicit CoreRig(CoreDefense d = CoreDefense::None)
        : root("rig")
    {
        CoreParams p;
        p.defense = d;
        core = std::make_unique<Core>(0, p, &mem, &root);
    }

    explicit CoreRig(const CoreParams &p) : root("rig")
    {
        core = std::make_unique<Core>(0, p, &mem, &root);
    }

    void
    runProgram(const Program &prog, std::uint64_t r1 = 0)
    {
        prog_ = prog;
        ArchContext ctx;
        ctx.program = &prog_;
        ctx.asid = 1;
        ctx.regs[1] = r1;
        core->setContext(ctx);
        core->run(1'000'000);
        ASSERT_TRUE(core->halted());
        core->drain();
    }

    StatGroup root;
    FakeMem mem;
    std::unique_ptr<Core> core;
    Program prog_;
};

// --- functional correctness -----------------------------------------------

TEST(CoreFunc, AluArithmetic)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 10);
    b.movi(3, 4);
    b.add(4, 2, 3);
    b.sub(5, 2, 3);
    b.mul(6, 2, 3);
    b.div(7, 2, 3);
    b.andi(8, 2, 6);
    b.ori(9, 2, 5);
    b.xori(10, 2, 3);
    b.shli(11, 2, 2);
    b.shri(12, 2, 1);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(4), 14u);
    EXPECT_EQ(rig.core->reg(5), 6u);
    EXPECT_EQ(rig.core->reg(6), 40u);
    EXPECT_EQ(rig.core->reg(7), 2u);
    EXPECT_EQ(rig.core->reg(8), 2u);
    EXPECT_EQ(rig.core->reg(9), 15u);
    EXPECT_EQ(rig.core->reg(10), 9u);
    EXPECT_EQ(rig.core->reg(11), 40u);
    EXPECT_EQ(rig.core->reg(12), 5u);
}

TEST(CoreFunc, LoadsReadMemory)
{
    CoreRig rig;
    rig.mem.write(1, 0x1000, 77);
    ProgramBuilder b("p");
    b.movi(2, 0x1000);
    b.load(3, 2, 0);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(3), 77u);
}

TEST(CoreFunc, StoresVisibleAfterCommit)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 0x2000);
    b.movi(3, 55);
    b.store(3, 2, 0);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.mem.read(1, 0x2000), 55u);
}

TEST(CoreFunc, StoreToLoadForwarding)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 0x3000);
    b.movi(3, 99);
    b.store(3, 2, 0);
    b.load(4, 2, 0); // must see the in-flight store's value
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(4), 99u);
    EXPECT_GE(rig.core->forwardedLoads.value(), 1u);
}

TEST(CoreFunc, LoopComputesSum)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 0);   // i
    b.movi(3, 0);   // sum
    b.movi(4, 10);  // limit
    b.label("top");
    b.add(3, 3, 2);
    b.addi(2, 2, 1);
    b.braLt("top", 2, 4);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(3), 45u);
}

TEST(CoreFunc, CallAndReturn)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 1);
    b.call("fn");
    b.addi(2, 2, 100);  // runs after return
    b.halt();
    b.label("fn");
    b.addi(2, 2, 10);
    b.ret();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(2), 111u);
}

TEST(CoreFunc, IndirectJump)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 5);      // 0: target index (the label position below)
    b.jumpReg(2);      // 1
    b.movi(3, 111);    // 2: skipped
    b.halt();          // 3
    b.nop();           // 4
    b.movi(3, 222);    // 5: jump target
    b.halt();          // 6
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(3), 222u);
}

TEST(CoreFunc, EffectiveAddressWithIndexAndScale)
{
    CoreRig rig;
    rig.mem.write(1, 0x1000 + 8 * 4 + 16, 42);
    ProgramBuilder b("p");
    b.movi(2, 0x1000);
    b.movi(3, 8);
    b.load(4, 2, 16, 3, 2); // 0x1000 + 16 + (8<<2)
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.core->reg(4), 42u);
}

// --- speculation -------------------------------------------------------------

/** A gadget whose branch mispredicts on the final run: train not-taken
 *  (r1 < 100), then run with r1 >= 100. On the wrong path a load to a
 *  distinctive address executes. */
Program
mispredictGadget()
{
    ProgramBuilder b("p");
    b.movi(3, 100);
    b.braUge("done", 1, 3);
    b.movi(4, 0xdead000);
    b.load(5, 4, 0);     // in-bounds body (wrong path on final run)
    b.label("done");
    b.halt();
    return b.take();
}

TEST(CoreSpec, WrongPathLoadExecutes)
{
    CoreRig rig;
    const Program g = mispredictGadget();
    for (std::uint64_t i = 0; i < 8; ++i) {
        rig.prog_ = g;
        ArchContext ctx;
        ctx.program = &rig.prog_;
        ctx.asid = 1;
        ctx.regs[1] = i;
        rig.core->setContext(ctx);
        rig.core->run(1'000'000);
        rig.core->drain();
    }
    rig.mem.accesses.clear();
    // Out-of-bounds input: branch actually taken, predicted not-taken.
    rig.prog_ = g;
    ArchContext ctx;
    ctx.program = &rig.prog_;
    ctx.asid = 1;
    ctx.regs[1] = 500;
    rig.core->setContext(ctx);
    rig.core->run(1'000'000);
    rig.core->drain();

    bool wrong_path_load = false;
    for (const auto &a : rig.mem.accesses)
        wrong_path_load |= (a.vaddr == 0xdead000 && a.speculative);
    EXPECT_TRUE(wrong_path_load)
        << "the wrong-path load must reach the memory system";
    EXPECT_GE(rig.core->squashes.value(), 1u);
    EXPECT_GE(rig.mem.squashes, 1u);
}

TEST(CoreSpec, WrongPathLoadNeverCommits)
{
    CoreRig rig;
    const Program g = mispredictGadget();
    for (std::uint64_t i = 0; i < 8; ++i) {
        rig.prog_ = g;
        ArchContext ctx;
        ctx.program = &rig.prog_;
        ctx.asid = 1;
        ctx.regs[1] = i;
        rig.core->setContext(ctx);
        rig.core->run(1'000'000);
        rig.core->drain();
    }
    rig.mem.commits.clear();
    rig.prog_ = g;
    ArchContext ctx;
    ctx.program = &rig.prog_;
    ctx.asid = 1;
    ctx.regs[1] = 500;
    rig.core->setContext(ctx);
    rig.core->run(1'000'000);
    rig.core->drain();
    for (Addr a : rig.mem.commits)
        EXPECT_NE(a, 0xdead000u) << "squashed loads must not commit";
}

TEST(CoreSpec, ArchStateRestoredAfterSquash)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(3, 100);
    b.movi(5, 7);            // r5 = 7 architecturally
    b.braUge("done", 1, 3);
    b.movi(5, 666);          // wrong path clobbers r5
    b.label("done");
    b.halt();
    const Program g = b.take();
    for (std::uint64_t i = 0; i < 8; ++i) {
        rig.prog_ = g;
        ArchContext ctx;
        ctx.program = &rig.prog_;
        ctx.asid = 1;
        ctx.regs[1] = i;
        rig.core->setContext(ctx);
        rig.core->run(1'000'000);
        rig.core->drain();
        EXPECT_EQ(rig.core->reg(5), 666u); // in-bounds path sets it
    }
    rig.prog_ = g;
    ArchContext ctx;
    ctx.program = &rig.prog_;
    ctx.asid = 1;
    ctx.regs[1] = 500;
    rig.core->setContext(ctx);
    rig.core->run(1'000'000);
    rig.core->drain();
    EXPECT_EQ(rig.core->reg(5), 7u)
        << "wrong-path register writes must be rolled back";
}

TEST(CoreSpec, WrongPathStoresInvisibleAfterSquash)
{
    CoreRig rig;
    rig.mem.write(1, 0x4000, 1);
    ProgramBuilder b("p");
    b.movi(3, 100);
    b.movi(4, 0x4000);
    b.movi(5, 999);
    b.braUge("done", 1, 3);
    b.store(5, 4, 0);        // wrong-path store
    b.label("done");
    b.halt();
    const Program g = b.take();
    for (std::uint64_t i = 0; i < 8; ++i) {
        rig.prog_ = g;
        ArchContext ctx;
        ctx.program = &rig.prog_;
        ctx.asid = 1;
        ctx.regs[1] = i;
        rig.core->setContext(ctx);
        rig.core->run(1'000'000);
        rig.core->drain();
    }
    // After training runs the in-bounds path stored 999; reset it.
    rig.mem.write(1, 0x4000, 1);
    rig.prog_ = g;
    ArchContext ctx;
    ctx.program = &rig.prog_;
    ctx.asid = 1;
    ctx.regs[1] = 500;
    rig.core->setContext(ctx);
    rig.core->run(1'000'000);
    rig.core->drain();
    EXPECT_EQ(rig.mem.read(1, 0x4000), 1u)
        << "squashed stores must never reach memory";
}

TEST(CoreSpec, CorrectPredictionNoSquash)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 0);
    b.movi(4, 50);
    b.label("top");
    b.addi(2, 2, 1);
    b.braLt("top", 2, 4);
    b.halt();
    rig.runProgram(b.take());
    // A highly regular loop should squash only while the tournament
    // predictor's history-indexed counters warm up (~historyBits), plus
    // the loop exit.
    EXPECT_LE(rig.core->squashes.value(), 14u);
}

// --- serializing ops -----------------------------------------------------------

TEST(CoreSerial, SyscallNotifiesMemSystem)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 1);
    b.syscall();
    b.movi(3, 2);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.mem.syscalls, 1u);
    EXPECT_EQ(rig.core->reg(3), 2u);
}

TEST(CoreSerial, SandboxAndBarrierOps)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.sandboxEnter();
    b.flushBarrier();
    b.sandboxExit();
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.mem.sandboxSwitches, 2u);
    EXPECT_EQ(rig.mem.flushBarriers, 1u);
}

TEST(CoreSerial, SerializingOpNotExecutedOnWrongPath)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(3, 100);
    b.braUge("done", 1, 3);
    b.syscall();           // wrong-path syscall must not fire
    b.label("done");
    b.halt();
    const Program g = b.take();
    for (std::uint64_t i = 0; i < 8; ++i) {
        rig.prog_ = g;
        ArchContext ctx;
        ctx.program = &rig.prog_;
        ctx.asid = 1;
        ctx.regs[1] = i;
        rig.core->setContext(ctx);
        rig.core->run(1'000'000);
        rig.core->drain();
    }
    const unsigned trained_syscalls = rig.mem.syscalls; // in-bounds runs
    rig.prog_ = g;
    ArchContext ctx;
    ctx.program = &rig.prog_;
    ctx.asid = 1;
    ctx.regs[1] = 500;
    rig.core->setContext(ctx);
    rig.core->run(1'000'000);
    rig.core->drain();
    EXPECT_EQ(rig.mem.syscalls, trained_syscalls)
        << "a wrong-path syscall must not flush anything";
}

TEST(CoreSerial, ContextSwitchNotifiesAndCharges)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 1);
    b.halt();
    rig.runProgram(b.take());
    const Cycle before = rig.core->now();
    ProgramBuilder b2("q");
    b2.movi(2, 2);
    b2.halt();
    Program q = b2.take();
    ArchContext ctx;
    ctx.program = &q;
    ctx.asid = 2;
    rig.core->contextSwitch(ctx);
    EXPECT_EQ(rig.mem.ctxSwitches, 1u);
    EXPECT_GE(rig.core->now(), before + 1000)
        << "context switches must charge kernel overhead";
    rig.core->run(1'000'000);
    EXPECT_TRUE(rig.core->halted());
}

// --- delay-on-miss ---------------------------------------------------------------

TEST(CoreDelayOnMiss, ShadowedMissWaitsForOlderBranchThenPaysLatency)
{
    // A correct-path load that misses the private hierarchy behind a
    // slow (correctly predicted) branch: delay-on-miss holds it until
    // the branch completes and then issues it non-speculatively; without
    // the defence it goes out speculatively at issue. Either way the
    // halt behind it commits exactly latency + 1 + the halt's own
    // latency after the access, which pins the delayed leg's timing.
    constexpr Cycle kLat = 300;
    Cycle undelayed_when = 0;
    for (const CoreDefense d :
         {CoreDefense::None, CoreDefense::DelayOnMiss}) {
        CoreRig rig(d);
        rig.mem.fixedLatency = kLat;
        rig.mem.privateHits = false;
        ProgramBuilder b("dom");
        b.movi(1, 1'000'000);
        b.movi(2, 3);
        b.movi(7, 0x1000);
        b.div(3, 1, 2);
        for (int i = 0; i < 10; ++i)
            b.div(3, 3, 2);
        b.braNe("skip", 3, 3);     // never taken; resolves ~130 cycles on
        b.load(4, 7, 0);
        b.label("skip");
        b.halt();
        rig.runProgram(b.take());

        const bool delayed = d == CoreDefense::DelayOnMiss;
        ASSERT_EQ(rig.mem.accesses.size(), 1u);
        const FakeMem::Rec &a = rig.mem.accesses[0];
        EXPECT_EQ(a.speculative, !delayed);
        EXPECT_EQ(rig.core->delayedLoads.value(), delayed ? 1u : 0u);
        EXPECT_EQ(rig.core->lastCommitCycle(),
                  a.when + kLat + 1 + opLatency(OpType::Halt));
        if (delayed)
            EXPECT_GT(a.when, undelayed_when + 100);
        else
            undelayed_when = a.when;
    }
}

// --- NACK retry ------------------------------------------------------------------

TEST(CoreNack, RetriesNonSpeculativelyOnCorrectPath)
{
    CoreRig rig;
    rig.mem.nackFirstAccessTo = true;
    rig.mem.nackTarget = 0x7000;
    ProgramBuilder b("p");
    b.movi(2, 0x7000);
    b.load(3, 2, 0);
    b.halt();
    rig.runProgram(b.take());
    EXPECT_EQ(rig.mem.nacksIssued, 1u);
    EXPECT_GE(rig.core->nackRetries.value(), 1u);
    // The retry must have been non-speculative.
    bool nonspec_retry = false;
    for (const auto &a : rig.mem.accesses)
        nonspec_retry |= (a.vaddr == 0x7000 && !a.speculative);
    EXPECT_TRUE(nonspec_retry);
}

// --- timing sanity ------------------------------------------------------------------

TEST(CoreTiming, DependentChainSlowerThanIndependent)
{
    // Dependent loads serialise; independent loads overlap.
    CoreRig rig_dep;
    rig_dep.mem.fixedLatency = 50;
    ProgramBuilder bd("dep");
    bd.movi(2, 0x100000);
    for (int i = 0; i < 16; ++i)
        bd.load(2, 2, 0); // address depends on previous load
    bd.halt();
    rig_dep.runProgram(bd.take());
    const Cycle dep_cycles = rig_dep.core->lastCommitCycle();

    CoreRig rig_ind;
    rig_ind.mem.fixedLatency = 50;
    ProgramBuilder bi("ind");
    bi.movi(2, 0x100000);
    for (int i = 0; i < 16; ++i)
        bi.load(3 + (i % 8), 2, i * 64);
    bi.halt();
    rig_ind.runProgram(bi.take());
    const Cycle ind_cycles = rig_ind.core->lastCommitCycle();

    EXPECT_GT(dep_cycles, 2 * ind_cycles)
        << "MLP must be visible in the timing model";
}

TEST(CoreTiming, IpcBoundedByWidth)
{
    CoreRig rig;
    ProgramBuilder b("p");
    b.movi(2, 0);
    b.movi(4, 2000);
    b.label("top");
    for (int i = 0; i < 16; ++i)
        b.addi(5 + (i % 8), 5 + (i % 8), 1);
    b.addi(2, 2, 1);
    b.braLt("top", 2, 4);
    b.halt();
    rig.runProgram(b.take());
    const double ipc = rig.core->ipc.value();
    EXPECT_GT(ipc, 1.0);
    EXPECT_LE(ipc, 8.0);
}

TEST(CoreTiming, FuPoolSizesPinned)
{
    // Independent IntAlu, IntMul/IntDiv, FpAlu and load ops contend for
    // every pool, right and wrong path (the loop exit mispredicts); the
    // int pool needs more than 3 units per cycle. The Table 1 defaults
    // and the goldens never use 1 unit or 16 (the per-pool maximum), so
    // these literals are what catches a unit-selection bug at the
    // pool-size edges.
    ProgramBuilder b("fumix");
    b.movi(1, 0x40000);
    b.movi(2, 7);
    b.movi(3, 3);
    b.movi(20, 0);
    b.movi(21, 50);
    b.label("top");
    for (int i = 0; i < 12; ++i)
        b.add(4 + i, 2, 3);
    b.mul(16, 2, 3);
    b.mul(17, 2, 3);
    b.div(18, 2, 3);
    b.fp(19, 2, 3);
    b.fp(22, 2, 3);
    b.load(23, 1, 0);
    b.load(24, 1, 64);
    b.addi(20, 20, 1);
    b.braLt("top", 20, 21);
    b.halt();
    const Program p = b.take();

    struct Pin
    {
        unsigned intAlus, fpAlus, mulDivs, memPorts;
        Cycle lastCommit;
        std::uint64_t commits;
    };
    const Pin pins[] = {
        {1, 1, 1, 1, 814, 1056},
        {3, 3, 3, 3, 372, 1056},
        {16, 16, 16, 16, 264, 1056},
        {3, 16, 1, 16, 372, 1056},
    };
    for (const Pin &pin : pins) {
        CoreParams params;
        params.intAlus = pin.intAlus;
        params.fpAlus = pin.fpAlus;
        params.mulDivs = pin.mulDivs;
        params.memPorts = pin.memPorts;
        CoreRig rig(params);
        rig.runProgram(p);
        const std::string row = std::to_string(pin.intAlus) + "/" +
                                std::to_string(pin.fpAlus) + "/" +
                                std::to_string(pin.mulDivs) + "/" +
                                std::to_string(pin.memPorts);
        EXPECT_EQ(rig.core->lastCommitCycle(), pin.lastCommit) << row;
        EXPECT_EQ(rig.core->committedCount(), pin.commits) << row;
    }
}

} // namespace
} // namespace mtrap

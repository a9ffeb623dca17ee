/**
 * @file
 * Edge-case tests for the out-of-order core: deep call stacks and RAS
 * overflow, BTB-miss stalls, nested wrong paths, store-buffer chains,
 * address masking, context save/restore round trips, structural
 * limit stress, wrong-path work that must never commit, and a
 * snapshot taken with a wrong path in flight.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cpu/core.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

/** Minimal fixed-latency memory (same shape as core_test's FakeMem). */
class MiniMem : public MemIface
{
  public:
    Cycle lat = 5;
    std::map<Addr, std::uint64_t> store;
    unsigned squashes = 0;

    DataAccessResult
    dataAccess(CoreId, Asid, Addr, Addr, bool, bool, Cycle) override
    {
        DataAccessResult r;
        r.latency = lat;
        return r;
    }
    Cycle dataProbe(CoreId, Asid, Addr, Cycle) override { return lat; }
    Cycle ifetchAccess(CoreId, Asid, Addr, Cycle) override { return 1; }
    void commitData(CoreId, Asid, Addr, Addr, bool, bool, Cycle) override
    {
    }
    void commitIfetch(CoreId, Asid, Addr, Cycle) override {}
    void onSyscall(CoreId, Cycle) override {}
    void onSandboxSwitch(CoreId, Cycle) override {}
    void onContextSwitch(CoreId, Cycle) override {}
    void onFlushBarrier(CoreId, Cycle) override {}
    void onSquash(CoreId, Cycle) override { ++squashes; }
    std::uint64_t
    read(Asid, Addr a) override
    {
        auto it = store.find(a);
        return it != store.end() ? it->second : 0;
    }
    void write(Asid, Addr a, std::uint64_t v) override { store[a] = v; }
};

struct Rig
{
    Rig() : root("rig")
    {
        core = std::make_unique<Core>(0, CoreParams{}, &mem, &root);
    }

    std::uint64_t
    runToHalt(const Program &p, std::uint64_t r1 = 0)
    {
        prog = p;
        ArchContext ctx;
        ctx.program = &prog;
        ctx.asid = 1;
        ctx.regs[1] = r1;
        core->setContext(ctx);
        core->run(2'000'000);
        EXPECT_TRUE(core->halted());
        core->drain();
        return core->lastCommitCycle();
    }

    StatGroup root;
    MiniMem mem;
    std::unique_ptr<Core> core;
    Program prog;
};

TEST(CoreEdge, DeepRecursionOverflowsRasButStaysCorrect)
{
    // 40 nested calls exceed the 16-entry RAS: predictions go wrong,
    // but architectural execution must stay correct.
    Rig rig;
    ProgramBuilder b("deep");
    b.movi(2, 0);
    b.movi(3, 40);
    b.call("fn");
    b.halt();
    b.label("fn");
    b.addi(2, 2, 1);
    b.braGe("leaf", 2, 3);
    b.call("fn");
    b.label("leaf");
    b.ret();
    rig.runToHalt(b.take());
    EXPECT_EQ(rig.core->reg(2), 40u);
}

TEST(CoreEdge, BtbMissStallsButExecutesCorrectly)
{
    // First-ever indirect jump has no BTB entry: the front end must
    // stall (no wrong path) and land on the right target.
    Rig rig;
    ProgramBuilder b("btbmiss");
    b.movi(2, 4);      // 0
    b.jumpReg(2);      // 1
    b.movi(3, 111);    // 2 (skipped)
    b.halt();          // 3
    b.movi(3, 222);    // 4
    b.halt();          // 5
    rig.runToHalt(b.take());
    EXPECT_EQ(rig.core->reg(3), 222u);
    EXPECT_EQ(rig.core->squashes.value(), 0u)
        << "a BTB miss stalls; it must not squash";
}

TEST(CoreEdge, IndirectJumpLearnsThroughBtb)
{
    // Second run of the same jump should be predicted (trained).
    Rig rig;
    ProgramBuilder b("btbtrain");
    b.movi(2, 4);
    b.jumpReg(2);
    b.halt();          // 2 (skipped)
    b.nop();           // 3
    b.movi(3, 1);      // 4
    b.halt();
    const Program p = b.take();
    rig.runToHalt(p);
    const Cycle first = rig.core->lastCommitCycle();
    const Cycle start2 = rig.core->now();
    rig.runToHalt(p);
    const Cycle second = rig.core->lastCommitCycle() - start2;
    EXPECT_LE(second, first)
        << "a trained BTB must not be slower than the cold run";
}

TEST(CoreEdge, StoreBufferChainsSameAddress)
{
    // Multiple in-flight stores to one address: loads must forward the
    // youngest older value, and the final memory value is the last one.
    Rig rig;
    ProgramBuilder b("chain");
    b.movi(2, 0x1000);
    b.movi(3, 1);
    b.store(3, 2, 0);
    b.movi(3, 2);
    b.store(3, 2, 0);
    b.load(4, 2, 0);    // must see 2
    b.movi(3, 3);
    b.store(3, 2, 0);
    b.load(5, 2, 0);    // must see 3
    b.halt();
    rig.runToHalt(b.take());
    EXPECT_EQ(rig.core->reg(4), 2u);
    EXPECT_EQ(rig.core->reg(5), 3u);
    EXPECT_EQ(rig.mem.read(1, 0x1000), 3u);
}

TEST(CoreEdge, EffectiveAddressIsWordAlignedAndMasked)
{
    // Addresses are masked to the 44-bit VA space and word-aligned; a
    // garbage base must not crash anything.
    Rig rig;
    ProgramBuilder b("mask");
    b.movi(2, -1);          // all-ones base
    b.load(3, 2, 5);
    b.halt();
    rig.runToHalt(b.take());
    SUCCEED();
}

TEST(CoreEdge, ContextRoundTripPreservesRegisters)
{
    Rig rig;
    ProgramBuilder b("ctx");
    b.movi(2, 77);
    b.movi(3, 88);
    b.halt();
    rig.runToHalt(b.take());
    ArchContext saved = rig.core->saveContext();
    EXPECT_EQ(saved.regs[2], 77u);

    ProgramBuilder b2("other");
    b2.movi(2, 1);
    b2.halt();
    Program other = b2.take();
    ArchContext o;
    o.program = &other;
    o.asid = 2;
    rig.core->contextSwitch(o);
    rig.core->run(1'000'000);

    // Restore the first context and verify its state survived.
    rig.core->contextSwitch(saved);
    EXPECT_EQ(rig.core->reg(2), 77u);
    EXPECT_EQ(rig.core->reg(3), 88u);
}

TEST(CoreEdge, RobStressWithLongLatencyLoads)
{
    // Hundreds of independent long-latency loads must stream through
    // the 192-entry window without deadlock or counter corruption.
    Rig rig;
    rig.mem.lat = 120;
    ProgramBuilder b("stress");
    b.movi(2, 0x10000);
    for (int i = 0; i < 400; ++i)
        b.load(3 + (i % 8), 2, i * 64);
    b.halt();
    rig.runToHalt(b.take());
    EXPECT_GE(rig.core->committedCount(), 400u);
}

TEST(CoreEdge, NestedMispredictsRestoreToOldest)
{
    // A mispredicted branch inside the wrong path must not corrupt the
    // restore point of the outer (oldest) mispredicted branch.
    Rig rig;
    rig.mem.lat = 60; // slow condition loads widen the window
    ProgramBuilder b("nested");
    b.movi(4, 7);          // r4 = architectural marker
    b.movi(2, 0x2000);
    b.load(3, 2, 0);       // r3 = 0 (slow)
    b.braNe("wrong1", 3, 0);   // actual: not taken; train taken first
    b.movi(4, 1);          // correct path
    b.halt();
    b.label("wrong1");
    b.load(5, 2, 8);       // wrong path
    b.braNe("wrong2", 5, 0);
    b.movi(4, 2);
    b.halt();
    b.label("wrong2");
    b.movi(4, 3);
    b.halt();
    const Program p = b.take();

    // Train the first branch towards taken so the real run mispredicts.
    rig.mem.write(1, 0x2000, 1);  // r3 != 0 -> branch taken in training
    for (int i = 0; i < 20; ++i)
        rig.runToHalt(p);
    rig.mem.write(1, 0x2000, 0);  // now actual = not taken
    rig.runToHalt(p);
    EXPECT_EQ(rig.core->reg(4), 1u)
        << "after squash the architectural path must win";
}

TEST(CoreEdge, HaltOnWrongPathDoesNotTerminate)
{
    // A wrong-path Halt must not stop the program; execution resumes on
    // the correct path after the squash.
    Rig rig;
    rig.mem.lat = 60;
    ProgramBuilder b("wphalt");
    b.movi(2, 0x3000);
    b.load(3, 2, 0);           // r3 = 0 (slow)
    b.braEq("stop", 3, 0);     // actual: taken; train not-taken first
    b.movi(4, 10);
    b.halt();
    b.label("stop");
    b.movi(4, 20);
    b.halt();
    const Program p = b.take();
    rig.mem.write(1, 0x3000, 1);
    for (int i = 0; i < 20; ++i)
        rig.runToHalt(p);
    rig.mem.write(1, 0x3000, 0);
    rig.runToHalt(p);
    EXPECT_EQ(rig.core->reg(4), 20u);
}

TEST(CoreEdge, WrongPathRetWithEmptyStackDoesNotHalt)
{
    // The cold predictor falls through into a ret with an empty call
    // stack; that ret is wrong path, so it must stall to the squash, not
    // halt the program.
    Rig rig;
    ProgramBuilder b("wpret");
    b.movi(1, 0);
    b.movi(2, 1);
    b.movi(3, 0);
    b.braLt("skip", 1, 2);     // actual: taken
    b.ret();
    b.label("skip");
    for (int i = 0; i < 20; ++i)
        b.addi(3, 3, 1);
    b.halt();
    rig.runToHalt(b.take());
    EXPECT_EQ(rig.core->reg(3), 20u);
    EXPECT_EQ(rig.core->committedCount(), 25u);
}

TEST(CoreEdge, WrongPathFallOffEndDoesNotHalt)
{
    // The last op is an always-taken branch back to a halt; the cold
    // predictor falls through past the end of the program. Only the
    // correct-path halt may stop it.
    Rig rig;
    ProgramBuilder b("wpend");
    b.movi(1, 0);
    b.movi(2, 1);
    b.movi(3, 0);
    b.bra("body");
    b.label("tail");
    b.halt();
    b.label("body");
    for (int i = 0; i < 20; ++i)
        b.addi(3, 3, 1);
    b.braLt("tail", 1, 2);     // actual: taken; the fall-through is off
                               // the end of the program
    rig.runToHalt(b.take());
    EXPECT_EQ(rig.core->reg(3), 20u);
    EXPECT_EQ(rig.core->committedCount(), 26u);
}

/** r13 = 0, produced by a chain of 11 dependent divides: a branch on it
 *  resolves well over a hundred cycles after it is fetched. */
void
emitSlowZero(ProgramBuilder &b)
{
    b.div(3, 1, 2);
    for (int i = 0; i < 10; ++i)
        b.div(3, 3, 2);
    b.andi(13, 3, 0);
}

TEST(CoreEdge, StructuralStallNeverCommitsWrongPath)
{
    // Five iterations train the loop-exit branch not-taken; on the sixth
    // it is taken but resolves late, and the wrong path (a store plus 300
    // ALU ops) fills the ROB. Making room for it must squash, not commit:
    // the wrong-path store of 5 must never reach memory.
    constexpr Addr kX = 0x10000;
    ProgramBuilder b("robstall");
    b.movi(1, 1'000'000);
    b.movi(2, 3);
    b.movi(5, 0);
    b.movi(11, 5);
    b.movi(7, static_cast<std::int64_t>(kX));
    b.label("top");
    emitSlowZero(b);
    b.add(13, 13, 5);
    b.braGe("last", 13, 11);
    b.store(5, 7, 0);
    for (int i = 0; i < 300; ++i)
        b.addi(10, 10, 1);
    b.addi(5, 5, 1);
    b.bra("top");
    b.label("last");
    b.halt();
    const Program p = b.take();

    for (const Scheme s :
         {Scheme::Baseline, Scheme::MuonTrap, Scheme::SttSpectre}) {
        System sys(SystemConfig::forScheme(s, 1));
        ArchContext ctx;
        ctx.program = &p;
        ctx.asid = 1;
        sys.core(0).setContext(ctx);
        sys.core(0).run(1'000'000);
        ASSERT_TRUE(sys.core(0).halted()) << schemeName(s);
        EXPECT_EQ(sys.mem().read(1, kX), 4u) << schemeName(s);
        // 5 setup + 5 x 317 loop ops + 14 on the exit pass + halt.
        EXPECT_EQ(sys.core(0).committedCount(), 1605u) << schemeName(s);
    }
}

TEST(CoreEdge, SaveContextSquashesInFlightWrongPath)
{
    // Descheduling a task mid-misprediction must save its correct-path
    // state: the drain squashes the wrong path instead of committing it.
    constexpr Addr kX = 0x10000;
    ProgramBuilder b("wpdrain");
    b.movi(1, 1'000'000);
    b.movi(2, 3);
    b.movi(5, 7);
    b.movi(7, static_cast<std::int64_t>(kX));
    emitSlowZero(b);
    b.braEq("done", 13, 13);   // actual: taken; cold predictor falls through
    b.store(5, 7, 0);
    b.movi(6, 99);
    for (int i = 0; i < 300; ++i)
        b.addi(10, 10, 1);
    b.label("done");
    b.halt();
    const Program p = b.take();

    System sys(SystemConfig::forScheme(Scheme::Baseline, 1));
    const std::uint64_t before = sys.mem().read(1, kX);
    ArchContext ctx;
    ctx.program = &p;
    ctx.asid = 1;
    sys.core(0).setContext(ctx);
    sys.core(0).run(5);
    const ArchContext saved = sys.core(0).saveContext();
    EXPECT_EQ(saved.pc, b.labelIndex("done"));
    EXPECT_EQ(saved.regs[6], 0u);
    EXPECT_EQ(sys.core(0).committedCount(), 17u);
    EXPECT_EQ(sys.mem().read(1, kX), before);
}

TEST(CoreEdge, WrongPathSnapshotRoundTrip)
{
    // Save while a mispredicted branch's wrong path (stores and loads
    // included) is in the window, before its squash. The restored core
    // must free the same LQ/SQ slots at the squash, so the load-heavy
    // correct path after it fills the LQ at the same cycles as the
    // uninterrupted run.
    constexpr Addr kX = 0x10000;
    ProgramBuilder b("wpsnap");
    b.movi(1, 1'000'000);
    b.movi(2, 3);
    b.movi(5, 7);
    b.movi(7, static_cast<std::int64_t>(kX));
    emitSlowZero(b);
    b.braEq("done", 13, 13);   // actual: taken; cold predictor falls through
    for (int i = 0; i < 8; ++i) {
        b.store(5, 7, i * 8);
        b.load(6, 7, 64 + i * 8);
    }
    for (int i = 0; i < 100; ++i)
        b.addi(10, 10, 1);
    b.label("done");
    for (int i = 0; i < 80; ++i)
        b.load(16 + i % 8, 7, 4096 + i * 64);
    b.halt();
    const Program p = b.take();

    auto start = [&p](Rig &rig) {
        rig.mem.lat = 60;
        rig.prog = p;
        ArchContext ctx;
        ctx.program = &rig.prog;
        ctx.asid = 1;
        rig.core->setContext(ctx);
    };

    Rig a;
    start(a);
    while (a.core->wrongPathFetched.value() < 24)
        ASSERT_TRUE(a.core->stepOne());
    ASSERT_EQ(a.core->squashes.value(), 0u);
    const std::uint64_t committed_at_save = a.core->committedCount();
    Serializer s;
    s.beginSection(kTagCore);
    a.core->saveState(s);
    s.endSection();
    const std::vector<std::uint8_t> img = frameSnapshot(s, 1, 2);

    Rig r;
    start(r);
    r.mem.store = a.mem.store;
    Deserializer d(img, 1, 2);
    d.beginSection(kTagCore);
    r.core->restoreState(d);
    d.endSection();

    a.core->run(1'000'000);
    r.core->run(1'000'000);
    ASSERT_TRUE(a.core->halted());
    ASSERT_TRUE(r.core->halted());
    a.core->drain();
    r.core->drain();
    for (unsigned i = 0; i < kNumRegs; ++i)
        EXPECT_EQ(r.core->reg(i), a.core->reg(i)) << "r" << i;
    EXPECT_EQ(committed_at_save + r.core->committedCount(),
              a.core->committedCount());
    EXPECT_EQ(r.core->lastCommitCycle(), a.core->lastCommitCycle());
    EXPECT_EQ(a.core->squashes.value(), 1u);
    EXPECT_EQ(r.core->squashes.value(), 1u);
    EXPECT_EQ(r.mem.store, a.mem.store);
}

} // namespace
} // namespace mtrap

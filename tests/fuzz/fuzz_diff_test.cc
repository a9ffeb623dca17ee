/**
 * @file
 * Functional ISA oracle for the out-of-order core.
 *
 * MuonTrap's claim is that speculative work changes no architectural
 * state until it commits: a defence may change timing, never results.
 * This fuzzer checks that directly. It generates seeded random programs
 * exercising every op type — ALU (add/sub/mul/div/fp, immediates,
 * shifts), loads and stores with indexed addressing, conditional
 * branches over every condition, BTB-predicted indirect jumps with
 * data-dependent targets, call/ret pairs, and the serializing
 * protection-domain ops — runs each on a full System under every scheme
 * in allSchemes(), and steps a test-local functional interpreter
 * (IsaOracle) alongside. The interpreter is written from the
 * isa/microop.hh semantics and has no timing model, so it cannot share
 * a bug with the core's fetch path.
 *
 * After every 500-commit chunk the machine is drained
 * (System::drainAll, the context-switch path) and each core's
 * registers, pc, call stack, halt flag and commit count must equal the
 * interpreter's after the same number of commits. At the end the
 * program's reachable data region must match the interpreter's memory
 * image word for word. Every scheme matching the interpreter implies
 * every scheme matching every other, so there is no cross-scheme
 * comparison.
 *
 * The oracle checks architectural results only: a pure latency bug (one
 * that changes when something commits but not what) is caught by the
 * golden stat tables in tests/golden and the directed timing tests in
 * tests/cpu, not here.
 *
 * Runs on 1-, 2- and 4-core systems; multi-core runs alternate private
 * ASIDs with one shared ASID. Core c's data accesses use its own 8-byte
 * lane of every line ([r28 + 8*c + (r21 << log2(cores))]), so lines are
 * still shared — coherence traffic stays — while results are race-free.
 *
 * Program count per (scheme, cores) configuration defaults to a
 * CI-sized batch; set MTRAP_FUZZ_PROGRAMS to scale it (the
 * mtrap_fuzz_long ctest entry, gated behind -DMTRAP_LONG_FUZZ=ON, runs
 * 1000 per scheme) and MTRAP_FUZZ_SEED to draw a different population.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "isa/decoded.hh"
#include "sim/system.hh"

namespace mtrap
{
namespace
{

constexpr Addr kDataBase = 0x90'0000'0000ull;
constexpr std::int64_t kDataMask = 32 * 1024 - 8;
/** Half the accesses stay inside 32 hot words, so loads often hit
 *  in-flight and wrong-path stores (forwarding, squash isolation). */
constexpr std::int64_t kHotMask = 256 - 8;

/** Number of fuzz programs per (scheme, cores) configuration. */
unsigned
programsPerConfig()
{
    if (const char *env = std::getenv("MTRAP_FUZZ_PROGRAMS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 25;
}

/** Seed salt mixed into every program seed: MTRAP_FUZZ_SEED picks a
 *  different program population entirely (the CI sanitizer batch uses
 *  this so it is not a re-run of the fixed default seeds). */
std::uint64_t
seedSalt()
{
    if (const char *env = std::getenv("MTRAP_FUZZ_SEED"))
        return static_cast<std::uint64_t>(std::atoll(env));
    return 0;
}

/** log2 of the lane count that gives each of `cores` cores a lane. */
unsigned
lanesLog2(unsigned cores)
{
    unsigned l = 0;
    while ((1u << l) < cores)
        ++l;
    return l;
}

/**
 * Generate one seeded random program. Structure: a counted loop whose
 * body is a random mix over every op class, with matched call/ret
 * subroutines placed after the halt. Every data access is
 * [r28 + 8*lane + (r21 << (lanes_log2 + scale))] with r21 masked into a
 * word-aligned window of 32 KiB or of 32 hot words, so programs given
 * distinct lanes of the same 2^lanes_log2 never touch each other's
 * words.
 */
Program
fuzzProgram(std::uint64_t seed, unsigned body_ops, unsigned iterations,
            unsigned lane = 0, unsigned lanes_log2 = 0)
{
    Rng rng(seed);
    ProgramBuilder b(strfmt("fuzz%llu",
                            static_cast<unsigned long long>(seed)));
    const std::int64_t lane_off = 8 * static_cast<std::int64_t>(lane);
    const auto mask = [&rng] {
        return rng.below(2) ? kDataMask : kHotMask;
    };

    // r1..r20 general data, r26 counter, r27 limit, r28 data base,
    // r29 address mask, r30 jump scratch, r21 address scratch.
    b.movi(26, 0);
    b.movi(27, iterations);
    b.movi(28, static_cast<std::int64_t>(kDataBase));
    b.movi(29, kDataMask);
    for (unsigned r = 1; r <= 20; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.below(100'000)));

    const unsigned n_subs = 1 + static_cast<unsigned>(rng.below(3));
    unsigned label_id = 0;
    // (movi index, landing label): ProgramBuilder has no label->imm
    // fixups, so indirect-jump target loads are patched after take().
    std::vector<std::pair<std::uint64_t, std::string>> jump_patches;

    b.label("top");
    for (unsigned i = 0; i < body_ops; ++i) {
        const unsigned d = 1 + static_cast<unsigned>(rng.below(20));
        const unsigned s1 = 1 + static_cast<unsigned>(rng.below(20));
        const unsigned s2 = 1 + static_cast<unsigned>(rng.below(20));
        switch (rng.below(12)) {
          case 0: b.add(d, s1, s2); break;
          case 1: b.sub(d, s1, s2); break;
          case 2: b.mul(d, s1, s2); break;
          case 3: b.div(d, s1, s2); break;
          case 4: b.fp(d, s1, s2); break;
          case 5:
            switch (rng.below(5)) {
              case 0: b.addi(d, s1, static_cast<std::int64_t>(
                                        rng.below(4096))); break;
              case 1: b.xori(d, s1, static_cast<std::int64_t>(
                                        rng.below(0xffff))); break;
              case 2: b.ori(d, s1, static_cast<std::int64_t>(
                                       rng.below(0xff))); break;
              case 3: b.shli(d, s1, 1 + static_cast<unsigned>(
                                            rng.below(6))); break;
              default: b.shri(d, s1, 1 + static_cast<unsigned>(
                                             rng.below(12))); break;
            }
            break;
          case 6: { // load, indexed addressing
            b.andi(21, s1, mask());
            b.load(d, 28, lane_off, 21,
                   lanes_log2 + static_cast<unsigned>(rng.below(2)));
            break;
          }
          case 7: { // store
            b.andi(21, s2, mask());
            b.store(s1, 28, lane_off, 21, lanes_log2);
            break;
          }
          case 8: { // conditional branch over one or two ops
            static const BranchCond conds[] = {
                BranchCond::Eq,  BranchCond::Ne,  BranchCond::Lt,
                BranchCond::Ge,  BranchCond::Ult, BranchCond::Uge,
            };
            const std::string skip = strfmt("l%u", label_id++);
            b.braCond(conds[rng.below(6)], s1, s2, skip);
            b.add(d, d, s1);
            if (rng.below(2))
                b.sub(d, d, s2);
            b.label(skip);
            break;
          }
          case 9: { // data-dependent indirect jump over two landings
            const std::string land = strfmt("l%u", label_id++);
            b.andi(30, s1, 1);       // r30 = s1 & 1
            b.movi(31, 0);           // r31 = index of 'land' (patched)
            jump_patches.emplace_back(b.here() - 1, land);
            b.add(30, 30, 31);       // target = land or land + 1
            b.jumpReg(30);
            b.label(land);
            b.nop();
            b.add(d, d, s2);
            break;
          }
          case 10: // unconditional branch (skip one op)
            {
                const std::string skip = strfmt("l%u", label_id++);
                b.bra(skip);
                b.nop();
                b.label(skip);
            }
            break;
          default: // call a random subroutine, or a rare serializer
            if (rng.below(8) == 0) {
                switch (rng.below(4)) {
                  case 0: b.syscall(); break;
                  case 1: b.sandboxEnter(); break;
                  case 2: b.sandboxExit(); break;
                  default: b.flushBarrier(); break;
                }
            } else {
                b.call(strfmt("sub%llu",
                              static_cast<unsigned long long>(
                                  rng.below(n_subs))));
            }
            break;
        }
    }
    b.addi(26, 26, 1);
    b.braLt("top", 26, 27);
    b.halt();

    // Subroutines (reachable only through calls).
    for (unsigned s = 0; s < n_subs; ++s) {
        b.label(strfmt("sub%u", s));
        const unsigned d = 1 + static_cast<unsigned>(rng.below(20));
        b.addi(d, d, static_cast<std::int64_t>(rng.below(64)));
        if (rng.below(2)) {
            b.andi(21, d, mask());
            b.load(d, 28, lane_off, 21, lanes_log2);
        }
        b.ret();
    }
    // Unreachable terminator: keeps the builder's ends-with-halt lint
    // quiet (the architectural halt is the one before the subroutines).
    b.halt();
    Program p = b.take();
    for (const auto &[idx, name] : jump_patches)
        p.ops[idx].imm = static_cast<std::int64_t>(b.labelIndex(name));
    return p;
}

/**
 * Functional interpreter of one program: the architectural semantics of
 * isa/microop.hh, one op per step, no timing. Stores go to a sparse
 * overlay; untouched words read through a pristine System's functional
 * memory, which is a pure function of (asid, vaddr).
 */
class IsaOracle
{
  public:
    IsaOracle(const Program &prog, Asid asid, System &pristine)
        : prog_(prog), asid_(asid), pristine_(pristine), pc_(prog.entry)
    {
    }

    Asid asid() const { return asid_; }
    std::uint64_t pc() const { return pc_; }
    bool halted() const { return halted_; }
    std::uint64_t committed() const { return committed_; }
    std::uint64_t reg(unsigned r) const { return regs_[r]; }
    const std::vector<std::uint64_t> &callStack() const { return stack_; }
    const std::map<Addr, std::uint64_t> &stores() const { return stores_; }

    /** Architectural value of the data word at `va`. */
    std::uint64_t
    load(Addr va) const
    {
        const auto it = stores_.find(va);
        return it != stores_.end() ? it->second
                                   : pristine_.mem().read(asid_, va);
    }

    /** Step until `commits` ops have committed or the program halts. */
    void
    stepTo(std::uint64_t commits)
    {
        while (!halted_ && committed_ < commits)
            step();
    }

  private:
    /** An unused operand (kNoReg) reads as zero. */
    std::uint64_t
    src(std::uint8_t r) const
    {
        return r == kNoReg ? 0 : regs_[r];
    }

    void
    setDst(std::uint8_t r, std::uint64_t v)
    {
        if (r != kNoReg)
            regs_[r] = v;
    }

    /** r[base] + imm + (r[index] << scale), in the 44-bit VA space and
     *  aligned down to its 8-byte word. */
    Addr
    address(const MicroOp &op) const
    {
        const Addr a = src(op.base) + static_cast<Addr>(op.imm) +
                       (src(op.index) << op.scale);
        return a & ((Addr{1} << 44) - 1) & ~Addr{7};
    }

    std::uint64_t
    alu(const MicroOp &op) const
    {
        const std::uint64_t a = src(op.src1);
        const std::uint64_t b = op.src2 != kNoReg
                                    ? regs_[op.src2]
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
        ADD_FAILURE() << "unknown AluOp";
        return 0;
    }

    bool
    taken(const MicroOp &op) const
    {
        const std::uint64_t a = src(op.src1);
        const std::uint64_t b = src(op.src2);
        const auto sa = static_cast<std::int64_t>(a);
        const auto sb = static_cast<std::int64_t>(b);
        switch (op.cond) {
          case BranchCond::Eq: return a == b;
          case BranchCond::Ne: return a != b;
          case BranchCond::Lt: return sa < sb;
          case BranchCond::Ge: return sa >= sb;
          case BranchCond::Ult: return a < b;
          case BranchCond::Uge: return a >= b;
          case BranchCond::Always: return true;
        }
        ADD_FAILURE() << "unknown BranchCond";
        return false;
    }

    void
    step()
    {
        // Falling off the end halts without committing anything.
        if (pc_ >= prog_.size()) {
            halted_ = true;
            return;
        }
        const MicroOp &op = prog_.ops[pc_];
        std::uint64_t next = pc_ + 1;
        switch (op.type) {
          case OpType::IntAlu:
          case OpType::IntMul:
          case OpType::IntDiv:
          case OpType::FpAlu:
            setDst(op.dst, alu(op));
            break;
          case OpType::Load:
            setDst(op.dst, load(address(op)));
            break;
          case OpType::Store:
            stores_[address(op)] = src(op.src1);
            break;
          case OpType::Branch:
            if (taken(op))
                next = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(pc_) + op.imm);
            break;
          case OpType::Jump:
            // Out-of-range targets clamp to the last op.
            next = std::min<std::uint64_t>(src(op.base), prog_.size() - 1);
            break;
          case OpType::Call:
            stack_.push_back(pc_ + 1);
            next = static_cast<std::uint64_t>(op.imm);
            break;
          case OpType::Ret:
            // Returning with an empty call stack halts without
            // committing the ret.
            if (stack_.empty()) {
                halted_ = true;
                return;
            }
            next = stack_.back();
            stack_.pop_back();
            break;
          case OpType::Halt:
            halted_ = true;
            break;
          case OpType::Nop:
          case OpType::Syscall:
          case OpType::SandboxEnter:
          case OpType::SandboxExit:
          case OpType::FlushBarrier:
            break;
        }
        pc_ = next;
        ++committed_;
    }

    const Program &prog_;
    Asid asid_;
    System &pristine_;
    std::array<std::uint64_t, kNumRegs> regs_{};
    std::vector<std::uint64_t> stack_;
    std::map<Addr, std::uint64_t> stores_;
    std::uint64_t pc_ = 0;
    std::uint64_t committed_ = 0;
    bool halted_ = false;
};

/** First architectural difference between a drained core and the
 *  oracle stepped to the core's commit count ("" when they agree). */
std::string
archMismatch(Core &core, IsaOracle &oracle)
{
    const std::uint64_t n = core.committedCount();
    oracle.stepTo(n);
    if (oracle.committed() != n)
        return strfmt("committed %llu, oracle halted after %llu",
                      static_cast<unsigned long long>(n),
                      static_cast<unsigned long long>(oracle.committed()));
    if (core.halted() != oracle.halted())
        return strfmt("halted=%d, oracle halted=%d", core.halted(),
                      oracle.halted());
    const ArchContext ctx = core.saveContext();
    if (ctx.pc != oracle.pc())
        return strfmt("pc %llu, oracle pc %llu",
                      static_cast<unsigned long long>(ctx.pc),
                      static_cast<unsigned long long>(oracle.pc()));
    for (unsigned i = 0; i < kNumRegs; ++i) {
        if (ctx.regs[i] != oracle.reg(i))
            return strfmt("r%u = %llu, oracle %llu", i,
                          static_cast<unsigned long long>(ctx.regs[i]),
                          static_cast<unsigned long long>(oracle.reg(i)));
    }
    if (ctx.callStack != oracle.callStack())
        return "call stack differs";
    return "";
}

/**
 * Run one program per core (private or shared ASIDs) in 500-commit
 * chunks, draining and checking every core against its oracle after
 * each chunk, then check the data region's memory image. Returns the
 * first mismatch, or "" when the run is architecturally exact.
 */
std::string
runAgainstOracle(const std::vector<Program> &progs, Scheme scheme,
                 bool shared_asid)
{
    const unsigned cores = static_cast<unsigned>(progs.size());
    const SystemConfig cfg = SystemConfig::forScheme(scheme, cores);
    System sys(cfg);
    System pristine(cfg);

    std::vector<IsaOracle> oracles;
    for (unsigned c = 0; c < cores; ++c) {
        ArchContext ctx;
        ctx.program = &progs[c];
        ctx.asid = shared_asid ? 1 : static_cast<Asid>(c + 1);
        ctx.pc = progs[c].entry;
        sys.core(c).setContext(ctx);
        oracles.emplace_back(progs[c], ctx.asid, pristine);
    }

    for (unsigned chunk = 0; chunk < 64; ++chunk) {
        sys.run(500);
        sys.drainAll();
        bool all_halted = true;
        for (unsigned c = 0; c < cores; ++c) {
            const std::string m = archMismatch(sys.core(c), oracles[c]);
            if (!m.empty())
                return strfmt("core%u after chunk %u: %s", c, chunk,
                              m.c_str());
            all_halted = all_halted && sys.core(c).halted();
        }
        if (all_halted)
            break;
    }

    // Memory image over every word the programs can reach: the 32 KiB
    // index window, shifted by the lane spacing and the largest scale.
    const Addr span =
        (static_cast<Addr>(kDataMask) << (lanesLog2(cores) + 1)) + 8 * cores;
    for (unsigned c = 0; c < cores; ++c) {
        const Asid asid = oracles[c].asid();
        for (Addr a = kDataBase; a < kDataBase + span; a += 8) {
            // Shared-ASID lanes are disjoint: at most one oracle wrote
            // the word.
            std::uint64_t want = pristine.mem().read(asid, a);
            for (const IsaOracle &o : oracles) {
                const auto it = o.stores().find(a);
                if (o.asid() == asid && it != o.stores().end())
                    want = it->second;
            }
            const std::uint64_t got = sys.mem().read(asid, a);
            if (got != want)
                return strfmt("asid %u word %#llx = %llu, oracle %llu",
                              asid, static_cast<unsigned long long>(a),
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(want));
        }
        if (shared_asid)
            break;
    }
    return "";
}

/**
 * The fixture and case names predate the oracle: "reference" is now the
 * functional interpreter above, checked against the core's (decoded)
 * fetch path.
 */
class FuzzDifferentialTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(FuzzDifferentialTest, DecodedPathMatchesReferenceSingleCore)
{
    const Scheme scheme = GetParam();
    const unsigned n = programsPerConfig();
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t seed =
            mixSeeds(0xf022 ^ seedSalt(), i * 6151 + 17);
        std::vector<Program> progs;
        progs.push_back(fuzzProgram(seed, 16, 30));
        ASSERT_EQ(runAgainstOracle(progs, scheme, false), "")
            << "scheme=" << schemeName(scheme) << " cores=1 seed=" << seed;
    }
}

TEST_P(FuzzDifferentialTest, DecodedPathMatchesReferenceMultiCore)
{
    const Scheme scheme = GetParam();
    // Multi-core runs are ~4x the work; scale the count down but keep
    // at least a handful per configuration.
    const unsigned n = std::max(4u, programsPerConfig() / 4);
    for (unsigned cores : {2u, 4u}) {
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t seed =
                mixSeeds((0xf022 + cores) ^ seedSalt(), i * 9377 + 5);
            std::vector<Program> progs;
            for (unsigned c = 0; c < cores; ++c)
                progs.push_back(fuzzProgram(mixSeeds(seed, c), 12, 20, c,
                                            lanesLog2(cores)));
            // Alternate between private address spaces and a shared
            // one (coherence + cross-asid invalidation coverage).
            const bool shared = (i % 2) == 1;
            ASSERT_EQ(runAgainstOracle(progs, scheme, shared), "")
                << "scheme=" << schemeName(scheme) << " cores=" << cores
                << " shared=" << shared << " seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FuzzDifferentialTest, ::testing::ValuesIn(allSchemes()),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string n = schemeName(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/** The decode itself: kinds, latencies, FU selection, pre-resolved
 *  targets. */
TEST(DecodeTest, LowersEveryOpFaithfully)
{
    ProgramBuilder b("decode");
    b.movi(1, 5);
    b.mul(2, 1, 1);
    b.div(3, 2, 1);
    b.fp(4, 1, 2);
    b.load(5, 1, 8, 2, 3);
    b.store(5, 1, 16);
    b.label("t");
    b.braLt("t", 1, 2);
    b.bra("end");
    b.label("end");
    b.call("sub");
    b.syscall();
    b.halt();
    b.label("sub");
    b.ret();
    b.halt(); // unreachable; keeps the ends-with-halt lint quiet
    const Program p = b.take();
    const DecodedProgram d = decodeProgram(p);
    ASSERT_EQ(d.ops.size(), p.ops.size());
    ASSERT_EQ(d.source, &p);

    EXPECT_EQ(d.ops[0].kind, OpKind::Alu);
    EXPECT_EQ(d.ops[0].fuSel, kFuInt);
    EXPECT_EQ(d.ops[0].latency, 1u);
    EXPECT_EQ(d.ops[1].kind, OpKind::Alu);
    EXPECT_EQ(d.ops[1].fuSel, kFuMul);
    EXPECT_EQ(d.ops[1].latency, 3u);
    EXPECT_EQ(d.ops[2].fuSel, kFuMul);
    EXPECT_EQ(d.ops[2].latency, 12u);
    EXPECT_EQ(d.ops[3].fuSel, kFuFp);
    EXPECT_EQ(d.ops[3].latency, 3u);
    EXPECT_EQ(d.ops[4].kind, OpKind::Load);
    EXPECT_EQ(d.ops[4].base, 1);
    EXPECT_EQ(d.ops[4].index, 2);
    EXPECT_EQ(d.ops[4].scale, 3);
    EXPECT_EQ(d.ops[4].imm, 8);
    EXPECT_EQ(d.ops[5].kind, OpKind::Store);
    EXPECT_EQ(d.ops[6].kind, OpKind::BraCond);
    EXPECT_EQ(d.ops[6].target(), 6u); // self-loop label 't'
    EXPECT_EQ(d.ops[7].kind, OpKind::BraAlways);
    EXPECT_EQ(d.ops[7].target(), 8u);
    EXPECT_EQ(d.ops[8].kind, OpKind::Call);
    EXPECT_EQ(d.ops[8].target(), 11u);
    EXPECT_EQ(d.ops[9].kind, OpKind::Serial);
    EXPECT_EQ(d.ops[9].type, OpType::Syscall);
    EXPECT_EQ(d.ops[10].kind, OpKind::Serial);
    EXPECT_EQ(d.ops[10].type, OpType::Halt);
    EXPECT_EQ(d.ops[11].kind, OpKind::Ret);
}

} // namespace
} // namespace mtrap

/**
 * @file
 * Build-time decode stage: lowers a Program into a dense, pre-resolved
 * stream the core's fetch hot path can dispatch over without per-
 * instruction re-derivation.
 *
 * The interpreter's inner loop used to re-answer the same questions for
 * every fetched instruction: which functional unit class? what latency?
 * is it serializing? is the ALU second operand a register or the
 * immediate? where does this branch go if taken? DecodedProgram answers
 * them once, at program-build time, and stores the answers in a flat
 * 24-byte-per-op array (no wider than a MicroOp, so the decoded stream
 * costs no extra cache footprint on large-code workloads):
 *
 *  - `kind` collapses the 16 OpType values into the 10 dispatch cases
 *    the fetch path actually distinguishes (always-taken branches get
 *    their own case, the five serializing ops share one),
 *  - `fuSel`/`latency` pre-resolve the functional-unit pool and the
 *    execution latency,
 *  - `target` pre-computes the taken-branch / call destination (the
 *    per-fetch signed displacement add disappears),
 *  - operand indices, immediate, and addressing fields are copied so
 *    the hot loop touches exactly one cache line stream.
 *
 * Core::fetchOne dispatches over this stream; it is the core's only
 * fetch path. tests/fuzz/ checks its architectural results against a
 * test-local functional ISA oracle written from isa/microop.hh, and
 * DecodeTest there pins the lowering itself.
 */

#ifndef MTRAP_ISA_DECODED_HH
#define MTRAP_ISA_DECODED_HH

#include <vector>

#include "isa/program.hh"

namespace mtrap
{

/** Dispatch class of one decoded op — the cases Core::fetchOne
 *  switches over. Values are dense so the compiler emits a jump table. */
enum class OpKind : std::uint8_t
{
    Nop,
    Alu,        ///< IntAlu / IntMul / IntDiv / FpAlu (fuSel + latency)
    Load,
    Store,
    BraAlways,  ///< unconditional relative branch (no predictor access)
    BraCond,    ///< conditional branch (predict + train)
    Jump,       ///< BTB-predicted indirect jump
    Call,
    Ret,
    Serial,     ///< Syscall / Sandbox* / FlushBarrier / Halt
};

/** Functional-unit pool selector (index into Core's pool table). */
enum FuSel : std::uint8_t
{
    kFuInt = 0,
    kFuFp = 1,
    kFuMul = 2,
};

/** One pre-decoded micro-op (32 bytes). */
struct DecodedOp
{
    OpKind kind = OpKind::Nop;
    /** Original op class: WinEntry bookkeeping, serializing dispatch. */
    OpType type = OpType::Nop;
    AluOp alu = AluOp::Add;
    BranchCond cond = BranchCond::Always;

    std::uint8_t dst = kNoReg;
    std::uint8_t src1 = kNoReg;
    std::uint8_t src2 = kNoReg;

    /** Memory addressing (copied from MicroOp). */
    std::uint8_t base = kNoReg;
    std::uint8_t index = kNoReg;
    std::uint8_t scale = 0;

    /** Functional-unit pool for Alu kinds. */
    std::uint8_t fuSel = kFuInt;
    /** Pre-resolved opLatency(type) (all op latencies fit a byte). */
    std::uint8_t latency = 1;

    /**
     * ALU immediate / memory displacement (same role as MicroOp::imm) —
     * except for branches and calls, whose displacement is consumed at
     * decode: there this slot holds the pre-resolved control target
     * (taken PC for relative branches, absolute target for calls),
     * read through target(). Sharing the slot keeps the op at 24 bytes,
     * same as a MicroOp: the decoded stream must not cost extra cache
     * footprint on large-code workloads.
     */
    std::int64_t imm = 0;

    std::uint64_t target() const
    {
        return static_cast<std::uint64_t>(imm);
    }
};

static_assert(sizeof(DecodedOp) == 24, "DecodedOp must stay dense");

/** A Program lowered into its decoded stream. */
struct DecodedProgram
{
    /** The source program (names, code base, I-side addressing). The
     *  decode borrows it: the source must outlive the decode. */
    const Program *source = nullptr;
    std::vector<DecodedOp> ops;

    std::uint64_t size() const { return ops.size(); }
};

/** Classify one OpType into its dispatch kind (BranchCond::Always
 *  branches become BraAlways). */
OpKind opKindOf(const MicroOp &op);

/** Lower `prog` into its decoded form. */
DecodedProgram decodeProgram(const Program &prog);

} // namespace mtrap

#endif // MTRAP_ISA_DECODED_HH

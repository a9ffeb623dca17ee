/**
 * @file
 * The simulator's micro-ISA.
 *
 * Workloads and attack kernels are small programs over 32 integer
 * registers. The ISA is deliberately minimal but expressive enough for
 * Spectre gadgets: loads/stores with base+index addressing, ALU ops
 * (including masks and shifts for secret-dependent address formation),
 * conditional branches, BTB-predicted indirect jumps, call/return, and
 * the protection-domain pseudo-ops MuonTrap reacts to (Syscall,
 * SandboxEnter/Exit, FlushBarrier).
 */

#ifndef MTRAP_ISA_MICROOP_HH
#define MTRAP_ISA_MICROOP_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mtrap
{

/** Number of architectural integer registers. */
inline constexpr unsigned kNumRegs = 32;

/** Register index sentinel: operand unused. */
inline constexpr std::uint8_t kNoReg = 0xff;

/** Primary operation class (selects functional unit and semantics). */
enum class OpType : std::uint8_t
{
    Nop,
    IntAlu,         ///< 1-cycle integer op (AluOp selects semantics)
    IntMul,         ///< 3-cycle multiply
    IntDiv,         ///< 12-cycle divide
    FpAlu,          ///< 3-cycle floating-point op (modelled on ints)
    Load,           ///< memory read, addr = r[base] + imm + r[index]<<scale
    Store,          ///< memory write of r[src1] to the same address form
    Branch,         ///< conditional, relative target
    Jump,           ///< indirect, target index = r[base] (BTB predicted)
    Call,           ///< direct call, pushes return address on the RAS
    Ret,            ///< return, target from RAS
    Syscall,        ///< kernel entry: serialising; MuonTrap flushes filters
    SandboxEnter,   ///< protection-domain switch into a sandbox
    SandboxExit,    ///< protection-domain switch out of a sandbox
    FlushBarrier,   ///< non-speculation barrier + filter flush (§4.9)
    Halt,           ///< end of program
};

/** Sub-operation for IntAlu/IntMul/IntDiv/FpAlu. */
enum class AluOp : std::uint8_t
{
    Add, Sub, And, Or, Xor, Shl, Shr, Mov, MovImm, Mul, Div,
};

/** Branch condition: compare r[src1] against r[src2] (an unused
 *  operand, kNoReg, reads as 0). */
enum class BranchCond : std::uint8_t
{
    Eq, Ne, Lt, Ge, Ult, Uge, Always,
};

/** Name helpers for disassembly/tracing. */
const char *opTypeName(OpType t);
const char *aluOpName(AluOp o);
const char *branchCondName(BranchCond c);

/** One static micro-op. */
struct MicroOp
{
    OpType type = OpType::Nop;
    AluOp alu = AluOp::Add;
    BranchCond cond = BranchCond::Always;

    std::uint8_t dst = kNoReg;
    std::uint8_t src1 = kNoReg;
    std::uint8_t src2 = kNoReg;

    /** ALU immediate / branch displacement (in instruction slots) /
     *  call target. */
    std::int64_t imm = 0;

    /** Memory addressing: vaddr = r[base] + imm + (r[index] << scale),
     *  masked to the 44-bit VA space and aligned down to 8 bytes. */
    std::uint8_t base = kNoReg;
    std::uint8_t index = kNoReg;
    std::uint8_t scale = 0;

    bool isMem() const { return type == OpType::Load ||
                                type == OpType::Store; }
    bool
    isCtrl() const
    {
        return type == OpType::Branch || type == OpType::Jump ||
               type == OpType::Call || type == OpType::Ret;
    }
    /** Ops that drain the pipeline before younger work may fetch. */
    bool
    isSerializing() const
    {
        return type == OpType::Syscall || type == OpType::SandboxEnter ||
               type == OpType::SandboxExit ||
               type == OpType::FlushBarrier || type == OpType::Halt;
    }

    /** One-line disassembly for debugging. */
    std::string disassemble() const;
};

/** Execution latency (cycles in the functional unit) for an op type. */
Cycle opLatency(OpType t);

} // namespace mtrap

#endif // MTRAP_ISA_MICROOP_HH

#include "isa/decoded.hh"

#include "common/log.hh"

namespace mtrap
{

OpKind
opKindOf(const MicroOp &op)
{
    switch (op.type) {
      case OpType::Nop: return OpKind::Nop;
      case OpType::IntAlu:
      case OpType::IntMul:
      case OpType::IntDiv:
      case OpType::FpAlu: return OpKind::Alu;
      case OpType::Load: return OpKind::Load;
      case OpType::Store: return OpKind::Store;
      case OpType::Branch:
        return op.cond == BranchCond::Always ? OpKind::BraAlways
                                             : OpKind::BraCond;
      case OpType::Jump: return OpKind::Jump;
      case OpType::Call: return OpKind::Call;
      case OpType::Ret: return OpKind::Ret;
      case OpType::Syscall:
      case OpType::SandboxEnter:
      case OpType::SandboxExit:
      case OpType::FlushBarrier:
      case OpType::Halt: return OpKind::Serial;
    }
    panic("opKindOf: bad op type %u", static_cast<unsigned>(op.type));
}

DecodedProgram
decodeProgram(const Program &prog)
{
    DecodedProgram d;
    d.source = &prog;
    d.ops.reserve(prog.ops.size());
    for (std::uint64_t pc = 0; pc < prog.ops.size(); ++pc) {
        const MicroOp &op = prog.ops[pc];
        DecodedOp o;
        o.kind = opKindOf(op);
        o.type = op.type;
        o.alu = op.alu;
        o.cond = op.cond;
        o.dst = op.dst;
        o.src1 = op.src1;
        o.src2 = op.src2;
        o.base = op.base;
        o.index = op.index;
        o.scale = op.scale;
        o.imm = op.imm;
        o.latency = static_cast<std::uint8_t>(opLatency(op.type));
        switch (op.type) {
          case OpType::FpAlu: o.fuSel = kFuFp; break;
          case OpType::IntMul:
          case OpType::IntDiv: o.fuSel = kFuMul; break;
          default: o.fuSel = kFuInt; break;
        }
        switch (o.kind) {
          case OpKind::BraAlways:
          case OpKind::BraCond:
            // Relative displacement resolved to the taken PC; stored
            // over the now-consumed displacement.
            o.imm = static_cast<std::int64_t>(pc) + op.imm;
            break;
          case OpKind::Call:
            // Call displacements are already absolute targets.
            break;
          default:
            break;
        }
        d.ops.push_back(o);
    }
    return d;
}

} // namespace mtrap

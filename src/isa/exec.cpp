#include "src/isa/exec.hpp"

#include <algorithm>

#include "src/common/log.hpp"

namespace bowsim::exec {

Word
aluCompute(const Instruction &inst, Word a, Word b, Word c)
{
    switch (inst.op) {
      case Opcode::Mov: return a;
      case Opcode::Add: return wrapAdd(a, b);
      case Opcode::Sub: return wrapSub(a, b);
      case Opcode::Mul: return wrapMul(a, b);
      case Opcode::Mad: return wrapAdd(wrapMul(a, b), c);
      // Division by zero yields 0; INT64_MIN / -1 wraps (both are
      // UB in C++ but well-defined device behaviour here).
      case Opcode::Div:
        return b == 0 ? 0 : (b == -1 ? wrapSub(0, a) : a / b);
      case Opcode::Rem:
        return b == 0 ? 0 : (b == -1 ? 0 : a % b);
      case Opcode::Min: return std::min(a, b);
      case Opcode::Max: return std::max(a, b);
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Not: return ~a;
      case Opcode::Shl: return static_cast<Word>(
          static_cast<std::uint64_t>(a) << (b & 63));
      case Opcode::Shr: return static_cast<Word>(
          static_cast<std::uint64_t>(a) >> (b & 63));
      default:
        panic("aluCompute on non-ALU opcode");
    }
}

bool
compare(CmpOp op, Word a, Word b)
{
    switch (op) {
      case CmpOp::Eq: return a == b;
      case CmpOp::Ne: return a != b;
      case CmpOp::Lt: return a < b;
      case CmpOp::Le: return a <= b;
      case CmpOp::Gt: return a > b;
      case CmpOp::Ge: return a >= b;
    }
    return false;
}

Word
readSpecial(SpecialReg sr, const ThreadCtx &ctx, unsigned lane)
{
    switch (sr) {
      case SpecialReg::TidX:
        return static_cast<Word>(ctx.warpInCta * kWarpSize + lane);
      case SpecialReg::CtaIdX:
        return static_cast<Word>(ctx.ctaId);
      case SpecialReg::NTidX:
        return static_cast<Word>(ctx.blockThreads);
      case SpecialReg::NCtaIdX:
        return static_cast<Word>(ctx.gridCtas);
      case SpecialReg::LaneId:
        return static_cast<Word>(lane);
      case SpecialReg::WarpId:
        return static_cast<Word>(ctx.warpInCta);
      case SpecialReg::SmId:
        return static_cast<Word>(ctx.smId);
    }
    return 0;
}

}  // namespace bowsim::exec

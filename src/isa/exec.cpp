#include "src/isa/exec.hpp"

#include <algorithm>
#include <functional>

#include "src/common/log.hpp"

namespace bowsim::exec {

void
aluRow(Opcode op, const Word *a, const Word *b, const Word *c, unsigned lo,
       unsigned hi, Word *out)
{
    auto rows = [&](auto f) {
        for (unsigned l = lo; l < hi; ++l)
            out[l] = f(a[l], b[l], c[l]);
    };
    switch (op) {
      case Opcode::Mov:
        return rows([](Word x, Word, Word) { return x; });
      case Opcode::Add:
        return rows([](Word x, Word y, Word) { return wrapAdd(x, y); });
      case Opcode::Sub:
        return rows([](Word x, Word y, Word) { return wrapSub(x, y); });
      case Opcode::Mul:
        return rows([](Word x, Word y, Word) { return wrapMul(x, y); });
      case Opcode::Mad:
        return rows([](Word x, Word y, Word z) {
            return wrapAdd(wrapMul(x, y), z);
        });
      // Division by zero yields 0; INT64_MIN / -1 wraps (both are
      // UB in C++ but well-defined device behaviour here).
      case Opcode::Div:
        return rows([](Word x, Word y, Word) {
            return y == 0 ? 0 : (y == -1 ? wrapSub(0, x) : x / y);
        });
      case Opcode::Rem:
        return rows([](Word x, Word y, Word) {
            return y == 0 ? 0 : (y == -1 ? 0 : x % y);
        });
      case Opcode::Min:
        return rows([](Word x, Word y, Word) { return std::min(x, y); });
      case Opcode::Max:
        return rows([](Word x, Word y, Word) { return std::max(x, y); });
      case Opcode::And:
        return rows([](Word x, Word y, Word) { return x & y; });
      case Opcode::Or:
        return rows([](Word x, Word y, Word) { return x | y; });
      case Opcode::Xor:
        return rows([](Word x, Word y, Word) { return x ^ y; });
      case Opcode::Not:
        return rows([](Word x, Word, Word) { return ~x; });
      case Opcode::Shl:
        return rows([](Word x, Word y, Word) {
            return static_cast<Word>(static_cast<std::uint64_t>(x)
                                     << (y & 63));
        });
      case Opcode::Shr:
        return rows([](Word x, Word y, Word) {
            return static_cast<Word>(static_cast<std::uint64_t>(x) >>
                                     (y & 63));
        });
      default:
        panic("aluRow on non-ALU opcode");
    }
}

LaneMask
compareRow(CmpOp op, const Word *a, const Word *b, unsigned lo, unsigned hi)
{
    auto rows = [&](auto f) {
        LaneMask m = 0;
        for (unsigned l = lo; l < hi; ++l)
            m |= static_cast<LaneMask>(f(a[l], b[l])) << l;
        return m;
    };
    switch (op) {
      case CmpOp::Eq: return rows(std::equal_to<Word>{});
      case CmpOp::Ne: return rows(std::not_equal_to<Word>{});
      case CmpOp::Lt: return rows(std::less<Word>{});
      case CmpOp::Le: return rows(std::less_equal<Word>{});
      case CmpOp::Gt: return rows(std::greater<Word>{});
      case CmpOp::Ge: return rows(std::greater_equal<Word>{});
    }
    return 0;
}

void
specialRow(SpecialReg sr, const ThreadCtx &ctx, unsigned lo, unsigned hi,
           Word *out)
{
    // Every special register is lane 0's value plus 0 or 1 per lane.
    Word base = 0;
    Word step = 0;
    switch (sr) {
      case SpecialReg::TidX:
        base = static_cast<Word>(ctx.warpInCta) * kWarpSize;
        step = 1;
        break;
      case SpecialReg::CtaIdX:
        base = ctx.ctaId;
        break;
      case SpecialReg::NTidX:
        base = ctx.blockThreads;
        break;
      case SpecialReg::NCtaIdX:
        base = ctx.gridCtas;
        break;
      case SpecialReg::LaneId:
        step = 1;
        break;
      case SpecialReg::WarpId:
        base = ctx.warpInCta;
        break;
      case SpecialReg::SmId:
        base = ctx.smId;
        break;
    }
    for (unsigned l = lo; l < hi; ++l)
        out[l] = base + step * static_cast<Word>(l);
}

}  // namespace bowsim::exec

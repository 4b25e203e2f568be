#include "src/arch/scoreboard.hpp"

#include "src/common/log.hpp"

namespace bowsim {

bool
Scoreboard::pending(const Operand &op) const
{
    const bool reg = op.kind == Operand::Kind::Reg;
    if (!reg && op.kind != Operand::Kind::Pred)
        return false;
    const unsigned i = static_cast<unsigned>(op.index);
    if (i >= (reg ? numRegs_ : numPreds_))
        panic("scoreboard: ", reg ? "%r" : "%p", op.index,
              " outside the register file");
    if (i < 64)
        return (((reg ? regMask_ : predMask_) >> i) & 1) != 0;
    return (reg ? wideRegs_ : widePreds_)[i - 64];
}

bool
Scoreboard::canIssueSlow(const Instruction &inst) const
{
    if (inst.guard >= 0 && pending(Operand::pred(inst.guard)))
        return false;
    for (const Operand &src : inst.src) {
        if (pending(src))
            return false;
    }
    // WAW: the destination must not already be in flight.
    if (pending(inst.dst))
        return false;
    return true;
}

void
Scoreboard::markSlow(const Operand &dst, bool reserve)
{
    // Reached for an index of 64 or more, and on every error.
    const bool reg = dst.kind == Operand::Kind::Reg;
    if (pending(dst) == reserve)  // pending() rejects an index outside
        panic("scoreboard: ", reserve ? "WAW reserve on " : "release of idle ",
              reg ? "%r" : "%p", dst.index);
    (reg ? wideRegs_ : widePreds_)[static_cast<unsigned>(dst.index) - 64] =
        reserve;
    if (reserve)
        ++outstanding_;
    else
        --outstanding_;
}

}  // namespace bowsim

#ifndef BOWSIM_ARCH_SCOREBOARD_HPP
#define BOWSIM_ARCH_SCOREBOARD_HPP

#include <bit>
#include <cstdint>

#include "src/common/log.hpp"
#include "src/isa/instruction.hpp"

/**
 * @file
 * Per-warp scoreboard tracking in-flight register writes. An instruction
 * may issue only when none of its sources (RAW), its destination (WAW) or
 * its guard predicate are pending.
 */

namespace bowsim {

/**
 * The registers one instruction touches, as scoreboard masks: bit i of
 * regs is %ri and bit i of preds is %pi, set for every source, the guard
 * and the destination. Indices must be below 64 (kMaxRegs, kMaxPreds),
 * which verify() checks at launch.
 */
struct Hazards {
    std::uint64_t regs = 0;
    std::uint64_t preds = 0;
};

/** @p inst's hazard masks (LaunchState builds them once per PC). */
inline Hazards
hazardsOf(const Instruction &inst)
{
    Hazards h;
    auto add = [&h](const Operand &op) {
        if (op.kind == Operand::Kind::Reg)
            h.regs |= std::uint64_t{1} << op.index;
        else if (op.kind == Operand::Kind::Pred)
            h.preds |= std::uint64_t{1} << op.index;
    };
    add(inst.dst);
    for (const Operand &src : inst.src)
        add(src);
    if (inst.guard >= 0)
        h.preds |= std::uint64_t{1} << inst.guard;
    return h;
}

class Scoreboard {
  public:
    /** True when nothing @p h names is pending: two ANDs. */
    bool
    canIssue(const Hazards &h) const
    {
        return ((regMask_ & h.regs) | (predMask_ & h.preds)) == 0;
    }

    /** Marks @p inst's destination as pending (no-op if none). Panics
     *  when it is already pending (WAW). */
    void reserve(const Instruction &inst) { mark(inst.dst, true); }

    /** Clears @p inst's destination (called at writeback). Panics when
     *  it is not pending. */
    void release(const Instruction &inst) { mark(inst.dst, false); }

    /** True when no writes are outstanding (used at barriers/teardown). */
    bool idle() const { return (regMask_ | predMask_) == 0; }

    unsigned
    outstanding() const
    {
        return static_cast<unsigned>(std::popcount(regMask_) +
                                     std::popcount(predMask_));
    }

  private:
    /** Sets (@p reserve) or clears the pending bit of @p dst. */
    void
    mark(const Operand &dst, bool reserve)
    {
        std::uint64_t *mask;
        switch (dst.kind) {
          case Operand::Kind::Reg:
            mask = &regMask_;
            break;
          case Operand::Kind::Pred:
            mask = &predMask_;
            break;
          default:
            return;
        }
        const std::uint64_t bit = std::uint64_t{1} << dst.index;
        if (((*mask & bit) != 0) == reserve)
            panic("scoreboard: ",
                  reserve ? "WAW reserve on " : "release of idle ",
                  mask == &regMask_ ? "%r" : "%p", dst.index);
        *mask ^= bit;
    }

    /** Pending writes: bit i for %ri (resp. %pi). */
    std::uint64_t regMask_ = 0;
    std::uint64_t predMask_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_SCOREBOARD_HPP

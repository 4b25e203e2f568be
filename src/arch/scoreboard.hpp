#ifndef BOWSIM_ARCH_SCOREBOARD_HPP
#define BOWSIM_ARCH_SCOREBOARD_HPP

#include <cstdint>
#include <vector>

#include "src/isa/instruction.hpp"

/**
 * @file
 * Per-warp scoreboard tracking in-flight register writes. An instruction
 * may issue only when none of its sources (RAW), its destination (WAW) or
 * its guard predicate are pending.
 */

namespace bowsim {

class Scoreboard {
  public:
    Scoreboard(unsigned num_regs, unsigned num_preds)
        : numRegs_(num_regs), numPreds_(num_preds),
          wideRegs_(num_regs > 64 ? num_regs - 64 : 0),
          widePreds_(num_preds > 64 ? num_preds - 64 : 0)
    {
    }

    /** True when @p inst has no outstanding hazard. */
    bool
    canIssue(const Instruction &inst) const
    {
        // Nothing in flight means no hazard of any kind; this is the
        // common case on the per-cycle arbitration path.
        if (outstanding_ == 0)
            return true;
        // Assembled instructions carry their full read/guard/write set
        // as bitmasks, reducing the hazard check to two ANDs.
        if (inst.hazardMasksValid) {
            return (regMask_ & inst.hazardRegMask) == 0 &&
                   (predMask_ & inst.hazardPredMask) == 0;
        }
        return canIssueSlow(inst);
    }

    /** Marks @p inst's destination as pending (no-op if none). Panics
     *  when it is already pending (WAW) or outside the register file. */
    void reserve(const Instruction &inst) { mark(inst.dst, true); }

    /** Clears @p inst's destination (called at writeback). Panics when
     *  it is not pending or outside the register file. */
    void release(const Instruction &inst) { mark(inst.dst, false); }

    /** True when no writes are outstanding (used at barriers/teardown). */
    bool idle() const { return outstanding_ == 0; }

    unsigned outstanding() const { return outstanding_; }

  private:
    bool pending(const Operand &op) const;
    bool canIssueSlow(const Instruction &inst) const;

    /**
     * Sets (@p reserve) or clears the pending flag of @p dst. Indices
     * below 64 are one mask bit, inline; wider files and every error go
     * through markSlow().
     */
    void
    mark(const Operand &dst, bool reserve)
    {
        std::uint64_t *mask;
        unsigned size;
        switch (dst.kind) {
          case Operand::Kind::Reg:
            mask = &regMask_;
            size = numRegs_;
            break;
          case Operand::Kind::Pred:
            mask = &predMask_;
            size = numPreds_;
            break;
          default:
            return;
        }
        const unsigned i = static_cast<unsigned>(dst.index);
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if (i >= 64 || i >= size || ((*mask & bit) != 0) == reserve) {
            markSlow(dst, reserve);
            return;
        }
        *mask ^= bit;
        if (reserve)
            ++outstanding_;
        else
            --outstanding_;
    }
    void markSlow(const Operand &dst, bool reserve);

    unsigned numRegs_;
    unsigned numPreds_;
    /**
     * The pending flags: bit i of the masks for index i < 64 (every
     * assembled kernel), the wide vectors at index i - 64 above. Wider
     * register files leave the hazard-mask fast path unused, because
     * their instructions carry no hazard masks.
     */
    std::uint64_t regMask_ = 0;
    std::uint64_t predMask_ = 0;
    std::vector<bool> wideRegs_;
    std::vector<bool> widePreds_;
    unsigned outstanding_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_SCOREBOARD_HPP

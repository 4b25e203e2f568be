#ifndef BOWSIM_ARCH_REGISTER_FILE_HPP
#define BOWSIM_ARCH_REGISTER_FILE_HPP

#include <vector>

#include "src/common/log.hpp"
#include "src/common/types.hpp"

/**
 * @file
 * Per-warp architectural register state: 32 lanes of general-purpose
 * 64-bit registers plus per-lane predicate bits (one LaneMask per
 * predicate register).
 */

namespace bowsim {

class RegisterFile {
  public:
    RegisterFile(unsigned num_regs, unsigned num_preds)
        : numRegs_(num_regs),
          regs_(static_cast<size_t>(num_regs) * kWarpSize, 0),
          preds_(num_preds, 0)
    {
    }

    /** Lanes (within @p mask) whose predicate @p pred is set. */
    LaneMask
    predMask(int pred, LaneMask mask) const
    {
        return preds_.at(pred) & mask;
    }

    unsigned numRegs() const { return numRegs_; }

    /**
     * Register @p reg's row, all 32 lanes: one bounds check per
     * instruction. Rows are lane-contiguous (reg-major layout).
     */
    const Word *
    row(int reg) const
    {
        checkReg(reg);
        return regs_.data() + static_cast<size_t>(reg) * kWarpSize;
    }
    Word *
    row(int reg)
    {
        checkReg(reg);
        return regs_.data() + static_cast<size_t>(reg) * kWarpSize;
    }

    /** All 32 lanes of predicate @p pred as a bitmask. */
    LaneMask predBits(int pred) const { return preds_.at(pred); }
    /** Mutable predicate row for per-instruction write loops. */
    LaneMask &predRow(int pred) { return preds_.at(pred); }

  private:
    void
    checkReg(int reg) const
    {
        if (reg < 0 || static_cast<unsigned>(reg) >= numRegs_)
            panic("register file access out of range: %r", reg);
    }

    unsigned numRegs_;
    std::vector<Word> regs_;
    std::vector<LaneMask> preds_;
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_REGISTER_FILE_HPP

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

    Word
    read(unsigned lane, int reg) const
    {
        return regs_[slot(lane, reg)];
    }

    void
    write(unsigned lane, int reg, Word value)
    {
        regs_[slot(lane, reg)] = value;
    }

    bool
    readPred(unsigned lane, int pred) const
    {
        return (preds_.at(pred) >> lane) & 1;
    }

    /** Lanes (within @p mask) whose predicate @p pred is set. */
    LaneMask
    predMask(int pred, LaneMask mask) const
    {
        return preds_.at(pred) & mask;
    }

    unsigned numRegs() const { return numRegs_; }

    /**
     * Direct row access for per-warp execution loops: one bounds check
     * per instruction instead of one per lane. Rows are lane-contiguous
     * (reg-major layout).
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

    /** All 32 lanes of predicate @p pred as a bitmask (hoists the
     *  per-lane readPred indexing out of execution loops). */
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

    size_t
    slot(unsigned lane, int reg) const
    {
        if (lane >= kWarpSize || reg < 0 ||
            static_cast<unsigned>(reg) >= numRegs_) {
            panic("register file access out of range: lane ", lane, " %r",
                  reg);
        }
        return static_cast<size_t>(reg) * kWarpSize + lane;
    }

    unsigned numRegs_;
    std::vector<Word> regs_;
    std::vector<LaneMask> preds_;
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_REGISTER_FILE_HPP

#ifndef BOWSIM_ARCH_REGISTER_FILE_HPP
#define BOWSIM_ARCH_REGISTER_FILE_HPP

#include <cstddef>
#include <vector>

#include "src/common/types.hpp"

/**
 * @file
 * Per-warp architectural register state: 32 lanes of general-purpose
 * 64-bit registers plus per-lane predicate bits (one LaneMask per
 * predicate register). Accesses are unchecked: verify() proves at
 * launch that every index is inside the declared file.
 */

namespace bowsim {

class RegisterFile {
  public:
    RegisterFile(unsigned num_regs, unsigned num_preds)
        : regs_(static_cast<std::size_t>(num_regs) * kWarpSize, 0),
          preds_(num_preds, 0)
    {
    }

    /** Lanes (within @p mask) whose predicate @p pred is set. */
    LaneMask
    predMask(int pred, LaneMask mask) const
    {
        return preds_[pred] & mask;
    }

    /** Register @p reg's row, all 32 lanes. Rows are lane-contiguous
     *  (reg-major layout). */
    const Word *
    row(int reg) const
    {
        return regs_.data() + static_cast<std::size_t>(reg) * kWarpSize;
    }
    Word *
    row(int reg)
    {
        return regs_.data() + static_cast<std::size_t>(reg) * kWarpSize;
    }

    /** All 32 lanes of predicate @p pred as a bitmask. */
    LaneMask predBits(int pred) const { return preds_[pred]; }
    /** Mutable predicate row for per-instruction write loops. */
    LaneMask &predRow(int pred) { return preds_[pred]; }

  private:
    std::vector<Word> regs_;
    std::vector<LaneMask> preds_;
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_REGISTER_FILE_HPP

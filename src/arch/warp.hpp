#ifndef BOWSIM_ARCH_WARP_HPP
#define BOWSIM_ARCH_WARP_HPP

#include <memory>

#include "src/arch/register_file.hpp"
#include "src/arch/scoreboard.hpp"
#include "src/arch/simt_stack.hpp"
#include "src/common/types.hpp"

/**
 * @file
 * Per-warp state held by an SM: architectural state (SIMT stack, register
 * file), hazard state (scoreboard), and the scheduler-visible status bits
 * BOWS and CAWA operate on.
 */

namespace bowsim {

/** CAWA's per-warp criticality inputs (Section II of the paper). */
struct CawaState {
    /** Estimated remaining dynamic instructions (nInst). */
    double estRemaining = 0.0;
    /** Instructions issued so far. */
    std::uint64_t issued = 0;
    /** Cycle the warp's CTA was dispatched to its SM. */
    Cycle dispatchCycle = 0;

    /**
     * Criticality metric at an arbitration in cycle @p now:
     * nInst * CPIavg + nStall. The warp was resident for the
     * now - dispatchCycle cycles before this one and issued at most once
     * in each, so nStall, the cycles it could not issue, is that count
     * minus its issued instructions.
     */
    double
    criticality(Cycle now) const
    {
        const std::uint64_t active = now - dispatchCycle;
        const double cpi = issued == 0 ? 1.0
                                       : static_cast<double>(active) /
                                             static_cast<double>(issued);
        return estRemaining * cpi + static_cast<double>(active - issued);
    }
};

/** BOWS per-warp state (Section III; Fig. 8 table fields). */
struct BowsState {
    /** The warp executed a SIB and sits in the backed-off queue. */
    bool backedOff = false;
    /** First cycle the next spin iteration may issue: a delay of L armed
     *  at issue cycle c expires at c + L. */
    Cycle delayUntil = 0;
    /** FIFO ticket: when the warp entered the backed-off queue. */
    std::uint64_t backoffSeq = 0;
};

class Warp {
  public:
    Warp(unsigned id, unsigned cta, unsigned warp_in_cta, std::uint64_t age,
         unsigned num_regs, unsigned num_preds, LaneMask active)
        : id_(id), cta_(cta), warpInCta_(warp_in_cta), age_(age),
          regs_(num_regs, num_preds)
    {
        stack_.reset(active);
    }

    unsigned id() const { return id_; }
    unsigned cta() const { return cta_; }
    unsigned warpInCta() const { return warpInCta_; }
    /** Global launch order; lower = older (GTO's age notion). */
    std::uint64_t age() const { return age_; }
    void setAge(std::uint64_t age) { age_ = age; }

    SimtStack &stack() { return stack_; }
    const SimtStack &stack() const { return stack_; }
    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }
    Scoreboard &scoreboard() { return scoreboard_; }
    const Scoreboard &scoreboard() const { return scoreboard_; }

    bool done() const { return stack_.done(); }

    bool atBarrier() const { return atBarrier_; }
    void setAtBarrier(bool v) { atBarrier_ = v; }

    CawaState &cawa() { return cawa_; }
    const CawaState &cawa() const { return cawa_; }
    BowsState &bows() { return bows_; }
    const BowsState &bows() const { return bows_; }

    /** Cycle this warp last won arbitration (stall attribution). */
    Cycle lastIssueCycle() const { return lastIssueCycle_; }
    void setLastIssueCycle(Cycle c) { lastIssueCycle_ = c; }

    /** In-flight LD/ST-unit operations (gates CTA retirement). */
    unsigned ldstOutstanding() const { return ldstOutstanding_; }
    void
    addLdstOutstanding(int delta)
    {
        ldstOutstanding_ = static_cast<unsigned>(
            static_cast<int>(ldstOutstanding_) + delta);
    }

  private:
    unsigned id_;
    unsigned cta_;
    unsigned warpInCta_;
    std::uint64_t age_;
    SimtStack stack_;
    RegisterFile regs_;
    Scoreboard scoreboard_;
    bool atBarrier_ = false;
    CawaState cawa_;
    BowsState bows_;
    unsigned ldstOutstanding_ = 0;
    Cycle lastIssueCycle_ = ~Cycle{0};
};

}  // namespace bowsim

#endif  // BOWSIM_ARCH_WARP_HPP

#ifndef BOWSIM_SCHED_SCHEDULER_HPP
#define BOWSIM_SCHED_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"

/**
 * @file
 * Warp-scheduler policies. Each SM scheduler unit owns one Scheduler
 * instance; every cycle in which the unit has a ready warp, the core
 * asks it to pick() the warp that issues. The core keeps the unit's
 * ready bitmask (barrier, BOWS back-off delay, scoreboard and LD/ST
 * port all pass), so a policy is a pure function of the masks: it
 * orders the ready warps and never probes a warp's eligibility.
 */

namespace bowsim {

/**
 * Per-unit warp bitmasks the core hands to pick(): bit k describes
 * warps[k] of the unit's resident vector, which holds at most 64 warps.
 */
struct UnitMask {
    /** Warp passes every issue gate this cycle (SmCore::eligible()). */
    std::uint64_t ready = 0;
    /** Warp is in the BOWS backed-off state. */
    std::uint64_t backedOff = 0;
};

class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /**
     * Fig. 8 arbitration: the base policy's first warp among the
     * candidates — the ready warps, minus the backed-off ones when
     * @p deprioritize — then, when @p deprioritize, the ready backed-off
     * warp that entered the queue first (smallest backoffSeq). Never
     * nullptr while @p mask has a ready bit; nullptr when it has none.
     * @p warps are the unit's residents in launch-age order (the order
     * the core maintains), indexed by the bits of @p mask.
     */
    Warp *pick(const std::vector<Warp *> &warps, const UnitMask &mask,
               Cycle now, bool deprioritize);

    /** Called when @p warp wins arbitration this cycle. */
    virtual void
    notifyIssued(Warp *warp, Cycle now)
    {
        (void)now;
        lastIssued_ = warp;
    }

    /** Called when @p warp retires so stale pointers are dropped. */
    virtual void
    notifyFinished(Warp *warp)
    {
        if (lastIssued_ == warp)
            lastIssued_ = nullptr;
    }

    virtual const char *name() const = 0;

  protected:
    /**
     * The base policy: the highest-priority warp among the set bits of
     * @p cand, which is never empty.
     */
    virtual Warp *pickFrom(const std::vector<Warp *> &warps,
                           std::uint64_t cand, Cycle now) = 0;

    /**
     * The greedy component of GTO and CAWA: lastIssued_ when it is still
     * a candidate (its bit is set in @p cand), else nullptr.
     */
    Warp *greedyPick(const std::vector<Warp *> &warps,
                     std::uint64_t cand) const;

    Warp *lastIssued_ = nullptr;
};

/** Creates the configured base policy. */
std::unique_ptr<Scheduler> makeScheduler(const GpuConfig &cfg);

}  // namespace bowsim

#endif  // BOWSIM_SCHED_SCHEDULER_HPP

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
 * One scheduler unit's warps, kept by the core. Unit u of an SM with U
 * units owns the SM's warp slots u, u + U, u + 2U, ...: the unit's slot
 * k holds warp id k * U + u, so slot order is warp-id order. A warp
 * keeps its slot, and with it bit k of every unit mask, for as long as
 * it is resident. At most 64 slots.
 */
struct UnitWarps {
    /** The warp in each slot; nullptr while the slot is free. */
    std::vector<Warp *> bySlot;
    /** The occupied slots, oldest launch age first. */
    std::vector<std::uint8_t> byAge;
    /** The occupied slots as a mask. */
    std::uint64_t resident = 0;
};

/** The per-cycle masks the core hands to pick(), over UnitWarps slots. */
struct UnitMask {
    /** Warp passes every issue gate this cycle (SmCore::eligible()). */
    std::uint64_t ready = 0;
    /** Warp is in the BOWS backed-off state. */
    std::uint64_t backedOff = 0;
};

class Scheduler {
  public:
    /** What pick() returns when no warp is ready. */
    static constexpr unsigned kNoSlot = 64;

    virtual ~Scheduler() = default;

    /**
     * Fig. 8 arbitration: the slot of the base policy's first warp among
     * the candidates — the ready warps, minus the backed-off ones when
     * @p deprioritize — then, when @p deprioritize, of the ready
     * backed-off warp that entered the queue first (smallest
     * backoffSeq). kNoSlot when @p mask has no ready bit.
     */
    unsigned pick(const UnitWarps &unit, const UnitMask &mask, Cycle now,
                  bool deprioritize);

    /** Called when @p warp, in @p slot of the unit, wins arbitration. */
    virtual void
    notifyIssued(Warp *warp, unsigned slot, Cycle now)
    {
        (void)now;
        lastIssued_ = warp;
        lastSlot_ = slot;
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
     * The base policy: the slot of the highest-priority warp among the
     * set bits of @p cand, which is never empty.
     */
    virtual unsigned pickFrom(const UnitWarps &unit, std::uint64_t cand,
                              Cycle now) = 0;

    /**
     * True while lastIssued_ still holds its slot. A warp whose final
     * issue was its Exit has left the unit but stays lastIssued_ until
     * its CTA retires, and no other warp takes the slot before then.
     */
    bool
    lastResident(const UnitWarps &unit) const
    {
        return lastIssued_ != nullptr && lastSlot_ < unit.bySlot.size() &&
               unit.bySlot[lastSlot_] == lastIssued_;
    }

    /** The greedy component of GTO and CAWA: lastIssued_ is a
     *  candidate (its bit is set in @p cand). */
    bool
    greedy(const UnitWarps &unit, std::uint64_t cand) const
    {
        return lastResident(unit) && ((cand >> lastSlot_) & 1) != 0;
    }

    Warp *lastIssued_ = nullptr;
    /** lastIssued_'s slot in the unit. */
    unsigned lastSlot_ = 0;
};

/**
 * Creates the configured base policy for scheduler unit @p unit of an
 * SM with cfg.numSchedulersPerCore units.
 */
std::unique_ptr<Scheduler> makeScheduler(const GpuConfig &cfg,
                                         unsigned unit = 0);

}  // namespace bowsim

#endif  // BOWSIM_SCHED_SCHEDULER_HPP

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
 * instance; every cycle the core asks it to pick() the warp that issues
 * from the unit's warp bitmasks. The eligibility test (scoreboard,
 * barrier, BOWS back-off) stays in the core, so policies remain pure
 * priority functions.
 */

namespace bowsim {

/**
 * Eligibility oracle the core hands to pick(): wraps the per-warp checks
 * that stay core-side (scoreboard, barrier, back-off delay, memory-port
 * availability). eligible() must be side-effect free — arbitration
 * probes warps in mask order, not in priority order.
 */
class IssueGate {
  public:
    virtual bool eligible(Warp &w) const = 0;

  protected:
    ~IssueGate() = default;
};

/**
 * Per-unit warp bitmasks maintained incrementally by the core: bit k
 * describes warps[k] of the unit's resident vector, which holds at most
 * 64 warps.
 */
struct UnitMask {
    /** Warp is not parked at a barrier (finished warps leave the
     *  vector immediately, so every resident warp is live). */
    std::uint64_t issuable = 0;
    /** Warp is in the BOWS backed-off state. */
    std::uint64_t backedOff = 0;
};

class Scheduler {
  public:
    virtual ~Scheduler() = default;

    /**
     * Fig. 8 arbitration: the first warp passing @p gate in the base
     * policy's order over the candidates — the issuable warps, minus the
     * backed-off ones when @p deprioritize — then, when
     * @p deprioritize, the backed-off queue in FIFO order (smallest
     * backoffSeq first). nullptr when no warp is eligible. @p warps are
     * the unit's residents in launch-age order (the order the core
     * maintains), indexed by the bits of @p mask.
     */
    Warp *pick(const std::vector<Warp *> &warps, const UnitMask &mask,
               Cycle now, bool deprioritize, const IssueGate &gate);

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
     * @p cand that passes @p gate, or nullptr.
     */
    virtual Warp *pickFrom(const std::vector<Warp *> &warps,
                           std::uint64_t cand, Cycle now,
                           const IssueGate &gate) = 0;

    /**
     * The greedy component of GTO and CAWA: lastIssued_ when it is still
     * a candidate (its bit is set in @p cand) and passes @p gate.
     */
    Warp *greedyPick(const std::vector<Warp *> &warps, std::uint64_t cand,
                     const IssueGate &gate) const;

    Warp *lastIssued_ = nullptr;
};

/** Creates the configured base policy. */
std::unique_ptr<Scheduler> makeScheduler(const GpuConfig &cfg);

}  // namespace bowsim

#endif  // BOWSIM_SCHED_SCHEDULER_HPP

#ifndef BOWSIM_SCHED_TWO_LEVEL_HPP
#define BOWSIM_SCHED_TWO_LEVEL_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * Two-level warp scheduling [Narasiman et al., MICRO'11], provided as an
 * additional baseline beyond the paper's LRR/GTO/CAWA set. Warps are
 * partitioned into fixed fetch groups; the scheduler issues round-robin
 * within the active group and only falls over to other groups when the
 * active group cannot issue — so groups drift apart in time and
 * long-latency stalls of one group hide under the execution of another.
 */

namespace bowsim {

class TwoLevelScheduler : public Scheduler {
  public:
    /** Warps per fetch group (consecutive warp ids). */
    static constexpr unsigned kGroupSize = 8;

    void
    notifyIssued(Warp *warp, Cycle now) override
    {
        Scheduler::notifyIssued(warp, now);
        activeGroup_ = warp->id() / kGroupSize;
    }

    const char *name() const override { return "TwoLevel"; }

  protected:
    Warp *pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                   Cycle now) override;

  private:
    unsigned activeGroup_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_TWO_LEVEL_HPP

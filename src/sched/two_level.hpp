#ifndef BOWSIM_SCHED_TWO_LEVEL_HPP
#define BOWSIM_SCHED_TWO_LEVEL_HPP

#include <array>

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

    /**
     * The scheduler of unit @p unit of an SM with @p units units: its
     * slot k holds warp id k * units + unit (UnitWarps), which fixes
     * each slot's fetch group and in-group index.
     */
    explicit TwoLevelScheduler(unsigned units = 1, unsigned unit = 0);

    void
    notifyIssued(Warp *warp, unsigned slot, Cycle now) override
    {
        Scheduler::notifyIssued(warp, slot, now);
        activeGroup_ = warp->id() / kGroupSize;
    }

    const char *name() const override { return "TwoLevel"; }

  protected:
    unsigned pickFrom(const UnitWarps &unit, std::uint64_t cand,
                      Cycle now) override;

  private:
    unsigned activeGroup_ = 0;
    /** Fetch group of each slot. */
    std::array<unsigned, 64> groupOf_{};
    /** Slots of group g and above, for g up to one past the last group
     *  (whose entry is empty). */
    std::vector<std::uint64_t> fromGroup_;
    /** Slots whose warp id has in-group index j. */
    std::array<std::uint64_t, kGroupSize> indexMask_{};
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_TWO_LEVEL_HPP

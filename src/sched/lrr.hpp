#ifndef BOWSIM_SCHED_LRR_HPP
#define BOWSIM_SCHED_LRR_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * Loose round-robin: priority rotates so the warp after the last-issued
 * one (by warp id) comes first each cycle.
 */

namespace bowsim {

class LrrScheduler : public Scheduler {
  public:
    const char *name() const override { return "LRR"; }

  protected:
    unsigned pickFrom(const UnitWarps &unit, std::uint64_t cand,
                      Cycle now) override;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_LRR_HPP

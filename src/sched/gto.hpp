#ifndef BOWSIM_SCHED_GTO_HPP
#define BOWSIM_SCHED_GTO_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * Greedy-then-oldest: keep issuing from the last warp until it stalls,
 * then fall back to the oldest (lowest launch age) ready warp. Following
 * Section IV-C of the paper, the age order rotates periodically (every
 * gtoRotatePeriod cycles) — strict GTO can livelock HT and ATM when the
 * greedy warp spins on a lock held by a never-scheduled warp.
 */

namespace bowsim {

class GtoScheduler : public Scheduler {
  public:
    explicit GtoScheduler(Cycle rotate_period)
        : rotatePeriod_(rotate_period)
    {
    }

    const char *name() const override { return "GTO"; }

  protected:
    unsigned pickFrom(const UnitWarps &unit, std::uint64_t cand,
                      Cycle now) override;

  private:
    Cycle rotatePeriod_;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_GTO_HPP

#ifndef BOWSIM_SCHED_CAWA_HPP
#define BOWSIM_SCHED_CAWA_HPP

#include "src/sched/scheduler.hpp"

/**
 * @file
 * CAWA criticality-aware scheduling [Lee et al., ISCA'15], as characterized
 * in Section II of the paper: per-warp criticality is estimated as
 * nInst × CPIavg + nStall and the most critical warp is prioritized.
 * The nInst estimate grows when a warp takes a backward branch (it will
 * run the loop body again) — which is exactly why CAWA misclassifies
 * spinning warps as critical and accelerates them.
 */

namespace bowsim {

class CawaScheduler : public Scheduler {
  public:
    const char *name() const override { return "CAWA"; }

  protected:
    unsigned pickFrom(const UnitWarps &unit, std::uint64_t cand,
                      Cycle now) override;
};

}  // namespace bowsim

#endif  // BOWSIM_SCHED_CAWA_HPP

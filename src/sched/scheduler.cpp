#include "src/sched/scheduler.hpp"

#include <bit>

#include "src/common/log.hpp"
#include "src/sched/cawa.hpp"
#include "src/sched/gto.hpp"
#include "src/sched/lrr.hpp"
#include "src/sched/two_level.hpp"

namespace bowsim {

Warp *
Scheduler::pick(const std::vector<Warp *> &warps, const UnitMask &mask,
                Cycle now, bool deprioritize, const IssueGate &gate)
{
    const std::uint64_t cand =
        deprioritize ? mask.issuable & ~mask.backedOff : mask.issuable;
    if (Warp *w = pickFrom(warps, cand, now, gate))
        return w;
    if (!deprioritize)
        return nullptr;
    // Backed-off queue: the first eligible warp in FIFO order is the
    // eligible one with the smallest (unique, per-core) backoffSeq.
    // Barrier-parked warps are never backed off (issuing the bar
    // cleared the state), so masking with issuable loses nothing.
    Warp *best = nullptr;
    for (std::uint64_t boff = mask.backedOff & mask.issuable; boff != 0;
         boff &= boff - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(boff))];
        if (best && w->bows().backoffSeq >= best->bows().backoffSeq)
            continue;
        if (gate.eligible(*w))
            best = w;
    }
    return best;
}

Warp *
Scheduler::greedyPick(const std::vector<Warp *> &warps, std::uint64_t cand,
                      const IssueGate &gate) const
{
    if (!lastIssued_)
        return nullptr;
    for (; cand != 0; cand &= cand - 1) {
        if (warps[static_cast<unsigned>(std::countr_zero(cand))] ==
            lastIssued_)
            return gate.eligible(*lastIssued_) ? lastIssued_ : nullptr;
    }
    return nullptr;
}

std::unique_ptr<Scheduler>
makeScheduler(const GpuConfig &cfg)
{
    switch (cfg.scheduler) {
      case SchedulerKind::LRR:
        return std::make_unique<LrrScheduler>();
      case SchedulerKind::GTO:
        return std::make_unique<GtoScheduler>(cfg.gtoRotatePeriod);
      case SchedulerKind::CAWA:
        return std::make_unique<CawaScheduler>();
      case SchedulerKind::TwoLevel:
        return std::make_unique<TwoLevelScheduler>();
    }
    fatal("unknown scheduler kind");
}

}  // namespace bowsim

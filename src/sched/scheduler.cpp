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
                Cycle now, bool deprioritize)
{
    const std::uint64_t cand =
        deprioritize ? mask.ready & ~mask.backedOff : mask.ready;
    if (cand != 0)
        return pickFrom(warps, cand, now);
    if (!deprioritize)
        return nullptr;  // every ready warp was a candidate
    // Backed-off queue: the first ready warp in FIFO order is the one
    // with the smallest (unique, per-core) backoffSeq.
    Warp *best = nullptr;
    for (std::uint64_t boff = mask.ready & mask.backedOff; boff != 0;
         boff &= boff - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(boff))];
        if (!best || w->bows().backoffSeq < best->bows().backoffSeq)
            best = w;
    }
    return best;
}

Warp *
Scheduler::greedyPick(const std::vector<Warp *> &warps,
                      std::uint64_t cand) const
{
    if (!lastIssued_)
        return nullptr;
    for (; cand != 0; cand &= cand - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
        if (w == lastIssued_)
            return w;
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

#include "src/sched/scheduler.hpp"

#include <bit>

#include "src/common/log.hpp"
#include "src/sched/cawa.hpp"
#include "src/sched/gto.hpp"
#include "src/sched/lrr.hpp"
#include "src/sched/two_level.hpp"

namespace bowsim {

unsigned
Scheduler::pick(const UnitWarps &unit, const UnitMask &mask, Cycle now,
                bool deprioritize)
{
    const std::uint64_t cand =
        deprioritize ? mask.ready & ~mask.backedOff : mask.ready;
    if (cand != 0)
        return pickFrom(unit, cand, now);
    if (!deprioritize)
        return kNoSlot;  // every ready warp was a candidate
    // Backed-off queue: the first ready warp in FIFO order is the one
    // with the smallest (unique, per-core) backoffSeq.
    unsigned best = kNoSlot;
    std::uint64_t best_seq = 0;
    for (std::uint64_t boff = mask.ready & mask.backedOff; boff != 0;
         boff &= boff - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(boff));
        const std::uint64_t seq = unit.bySlot[k]->bows().backoffSeq;
        if (best == kNoSlot || seq < best_seq) {
            best = k;
            best_seq = seq;
        }
    }
    return best;
}

std::unique_ptr<Scheduler>
makeScheduler(const GpuConfig &cfg, unsigned unit)
{
    switch (cfg.scheduler) {
      case SchedulerKind::LRR:
        return std::make_unique<LrrScheduler>();
      case SchedulerKind::GTO:
        return std::make_unique<GtoScheduler>(cfg.gtoRotatePeriod);
      case SchedulerKind::CAWA:
        return std::make_unique<CawaScheduler>();
      case SchedulerKind::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(cfg.numSchedulersPerCore,
                                                   unit);
    }
    fatal("unknown scheduler kind");
}

}  // namespace bowsim

#include "src/sched/cawa.hpp"

#include <bit>

namespace bowsim {

unsigned
CawaScheduler::pickFrom(const UnitWarps &unit, std::uint64_t cand,
                        Cycle now)
{
    // CAWA keeps GTO's greedy component: stick with the last-issued warp
    // while it remains schedulable.
    if (greedy(unit, cand))
        return lastSlot_;
    // Then the most critical candidate, ties to the older one. Ages are
    // unique within a device, so (criticality desc, age asc) is a strict
    // total order and the argmax is unique. The greedy warp is not a
    // candidate here, or it would have been picked.
    unsigned best = kNoSlot;
    const Warp *best_warp = nullptr;
    double best_crit = 0.0;
    for (; cand != 0; cand &= cand - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(cand));
        const Warp *w = unit.bySlot[k];
        const double crit = w->cawa().criticality(now);
        if (best_warp && (crit != best_crit ? crit < best_crit
                                            : w->age() >= best_warp->age()))
            continue;
        best = k;
        best_warp = w;
        best_crit = crit;
    }
    return best;
}

}  // namespace bowsim

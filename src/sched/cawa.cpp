#include "src/sched/cawa.hpp"

#include <bit>

namespace bowsim {

Warp *
CawaScheduler::pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                        Cycle now)
{
    // CAWA keeps GTO's greedy component: stick with the last-issued warp
    // while it remains schedulable.
    if (Warp *w = greedyPick(warps, cand))
        return w;
    // Then the most critical candidate, ties to the older one. Ages are
    // unique within a device, so (criticality desc, age asc) is a strict
    // total order and the argmax is unique. The greedy warp is not a
    // candidate here, or it would have been picked.
    Warp *best = nullptr;
    double best_crit = 0.0;
    for (; cand != 0; cand &= cand - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
        const double crit = w->cawa().criticality(now);
        if (best && (crit != best_crit ? crit < best_crit
                                       : w->age() >= best->age()))
            continue;
        best = w;
        best_crit = crit;
    }
    return best;
}

}  // namespace bowsim

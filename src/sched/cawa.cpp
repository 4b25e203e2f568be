#include "src/sched/cawa.hpp"

#include <bit>

namespace bowsim {

Warp *
CawaScheduler::pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                        Cycle now, const IssueGate &gate)
{
    (void)now;
    // CAWA keeps GTO's greedy component: stick with the last-issued warp
    // while it remains schedulable.
    if (Warp *w = greedyPick(warps, cand, gate))
        return w;
    // Then the most critical eligible warp, ties to the older one. Ages
    // are unique within a device, so (criticality desc, age asc) is a
    // strict total order and the argmax is unique.
    Warp *best = nullptr;
    double best_crit = 0.0;
    for (; cand != 0; cand &= cand - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
        if (w == lastIssued_)
            continue;
        const double crit = w->cawa().criticality();
        if (best && (crit != best_crit ? crit < best_crit
                                       : w->age() >= best->age()))
            continue;
        if (gate.eligible(*w)) {
            best = w;
            best_crit = crit;
        }
    }
    return best;
}

}  // namespace bowsim

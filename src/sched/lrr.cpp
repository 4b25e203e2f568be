#include "src/sched/lrr.hpp"

#include <algorithm>
#include <bit>

namespace bowsim {

Warp *
LrrScheduler::pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                       Cycle now)
{
    (void)now;
    // Priority is ascending warp id rotated to start just after the
    // last-issued warp's id. The first candidate of that circular order
    // is the candidate with the smallest id above the pivot, else the
    // smallest id overall (ids are unique per unit); one pass over the
    // set bits finds both.
    const bool have_pivot = lastIssued_ != nullptr;
    const unsigned pivot = have_pivot ? lastIssued_->id() : 0;
    Warp *best_above = nullptr;
    Warp *best_any = nullptr;
    for (; cand != 0; cand &= cand - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
        const unsigned id = w->id();
        if (have_pivot && id > pivot && (!best_above || id < best_above->id()))
            best_above = w;
        if (!best_any || id < best_any->id())
            best_any = w;
    }
    // The pivot only applies while the last-issued warp is resident: a
    // warp whose final issue was its Exit stays recorded as lastIssued_
    // until its CTA retires, and that means plain ascending ids.
    // Membership only decides above-pivot vs wraparound, so the pointer
    // scan is deferred until that distinction matters.
    if (best_above &&
        std::find(warps.begin(), warps.end(), lastIssued_) != warps.end())
        return best_above;
    return best_any;
}

}  // namespace bowsim

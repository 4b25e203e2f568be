#include "src/sched/two_level.hpp"

#include <algorithm>
#include <bit>

namespace bowsim {

Warp *
TwoLevelScheduler::pickFrom(const std::vector<Warp *> &warps,
                            std::uint64_t cand, Cycle now)
{
    (void)now;
    // Priority key: (group distance from the active group, round-robin
    // distance inside the group from the last-issued warp's slot),
    // smallest first. Group ids wrap so "next" groups follow the active
    // one; the group count spans the whole unit, not just the
    // candidates.
    unsigned max_group = 0;
    for (const Warp *w : warps)
        max_group = std::max(max_group, w->id() / kGroupSize);
    const unsigned num_groups = max_group + 1;
    const unsigned last_id =
        lastIssued_ ? lastIssued_->id() % kGroupSize : kGroupSize - 1;
    const auto key = [&](const Warp *w) {
        const unsigned group =
            (w->id() / kGroupSize + num_groups - activeGroup_) % num_groups;
        const unsigned slot =
            (w->id() % kGroupSize + kGroupSize - 1 - last_id) % kGroupSize;
        return std::uint64_t{group} << 32 | slot;
    };
    Warp *best = nullptr;
    std::uint64_t best_key = 0;
    for (; cand != 0; cand &= cand - 1) {
        Warp *w = warps[static_cast<unsigned>(std::countr_zero(cand))];
        const std::uint64_t k = key(w);
        if (best && k >= best_key)
            continue;
        best = w;
        best_key = k;
    }
    return best;
}

}  // namespace bowsim

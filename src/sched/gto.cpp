#include "src/sched/gto.hpp"

#include <bit>

namespace bowsim {

Warp *
GtoScheduler::pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                       Cycle now)
{
    // Priority: the last-issued warp first, then the residents in age
    // order rotated by the livelock-avoidance offset, i.e. positions
    // >= rot ascending, then the wrapped positions below rot.
    if (Warp *w = greedyPick(warps, cand))
        return w;
    std::size_t rot = 0;
    if (rotatePeriod_ > 0 && !warps.empty())
        rot = static_cast<std::size_t>(now / rotatePeriod_) % warps.size();
    const std::uint64_t low =
        rot > 0 ? cand & ((std::uint64_t{1} << rot) - 1) : 0;
    const std::uint64_t first = cand != low ? cand ^ low : low;
    return warps[static_cast<unsigned>(std::countr_zero(first))];
}

}  // namespace bowsim

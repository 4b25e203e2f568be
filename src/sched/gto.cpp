#include "src/sched/gto.hpp"

#include <bit>

namespace bowsim {

Warp *
GtoScheduler::pickFrom(const std::vector<Warp *> &warps, std::uint64_t cand,
                       Cycle now, const IssueGate &gate)
{
    // Priority: the last-issued warp first, then the residents in age
    // order rotated by the livelock-avoidance offset, i.e. positions
    // >= rot ascending, then the wrapped positions below rot.
    if (Warp *w = greedyPick(warps, cand, gate))
        return w;
    std::size_t rot = 0;
    if (rotatePeriod_ > 0 && !warps.empty())
        rot = static_cast<std::size_t>(now / rotatePeriod_) % warps.size();
    const std::uint64_t low =
        rot > 0 ? cand & ((std::uint64_t{1} << rot) - 1) : 0;
    for (std::uint64_t bits : {cand ^ low, low}) {
        for (; bits != 0; bits &= bits - 1) {
            Warp *w = warps[static_cast<unsigned>(std::countr_zero(bits))];
            if (w != lastIssued_ && gate.eligible(*w))
                return w;
        }
    }
    return nullptr;
}

}  // namespace bowsim

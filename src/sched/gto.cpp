#include "src/sched/gto.hpp"

#include "src/common/log.hpp"

namespace bowsim {

unsigned
GtoScheduler::pickFrom(const UnitWarps &unit, std::uint64_t cand, Cycle now)
{
    // Priority: the last-issued warp first, then the residents in age
    // order rotated by the livelock-avoidance offset, i.e. age positions
    // >= rot ascending, then the wrapped positions below rot.
    if (greedy(unit, cand))
        return lastSlot_;
    const std::vector<std::uint8_t> &age = unit.byAge;
    const std::size_t n = age.size();
    std::size_t i = 0;
    if (rotatePeriod_ > 0 && n != 0)
        i = static_cast<std::size_t>(now / rotatePeriod_) % n;
    for (std::size_t left = n; left != 0; --left) {
        if (((cand >> age[i]) & 1) != 0)
            return age[i];
        if (++i == n)
            i = 0;
    }
    panic("GTO: a candidate outside its unit's age list");
}

}  // namespace bowsim

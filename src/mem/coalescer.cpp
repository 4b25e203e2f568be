#include "src/mem/coalescer.hpp"

#include <bit>

namespace bowsim {

Targets
coalesce(const std::array<Addr, kWarpSize> &lane_addrs, LaneMask mask,
         Granularity g)
{
    Targets targets;
    for (LaneMask m = mask; m != 0; m &= m - 1) {
        const Addr a = lane_addrs[std::countr_zero(m)];
        targets.insert(g == Granularity::Line ? lineBase(a) : a);
    }
    return targets;
}

}  // namespace bowsim

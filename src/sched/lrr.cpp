#include "src/sched/lrr.hpp"

#include <bit>

namespace bowsim {

unsigned
LrrScheduler::pickFrom(const UnitWarps &unit, std::uint64_t cand, Cycle now)
{
    (void)now;
    // Priority is ascending warp id rotated to start just after the
    // last-issued warp's id. Slots are in id order, so that is the
    // lowest candidate bit above the last-issued warp's slot, else the
    // lowest candidate bit: a round-robin pick from an availability
    // mask. The pivot only applies while the last-issued warp is
    // resident; after its Exit the order is plain ascending ids.
    if (lastResident(unit)) {
        const std::uint64_t above =
            cand & ~((std::uint64_t{2} << lastSlot_) - 1);
        if (above != 0)
            return static_cast<unsigned>(std::countr_zero(above));
    }
    return static_cast<unsigned>(std::countr_zero(cand));
}

}  // namespace bowsim

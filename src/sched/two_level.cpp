#include "src/sched/two_level.hpp"

#include <bit>

#include "src/common/log.hpp"

namespace bowsim {

TwoLevelScheduler::TwoLevelScheduler(unsigned units, unsigned unit)
{
    if (units == 0 || unit >= units)
        fatal("TwoLevel scheduler for unit ", unit, " of ", units);
    for (unsigned k = 0; k < 64; ++k) {
        const unsigned id = k * units + unit;
        groupOf_[k] = id / kGroupSize;
        indexMask_[id % kGroupSize] |= std::uint64_t{1} << k;
    }
    fromGroup_.assign(groupOf_[63] + 2, 0);
    for (unsigned k = 0; k < 64; ++k) {
        for (unsigned g = 0; g <= groupOf_[k]; ++g)
            fromGroup_[g] |= std::uint64_t{1} << k;
    }
}

unsigned
TwoLevelScheduler::pickFrom(const UnitWarps &unit, std::uint64_t cand,
                            Cycle now)
{
    (void)now;
    // Priority key: (group distance from the active group, round-robin
    // distance inside the group from the last-issued warp's in-group
    // index), smallest first, ties to the oldest warp. The distance is
    // (group + groups - activeGroup_) % groups in unsigned arithmetic,
    // where the group count spans the whole unit: the highest resident
    // slot's group, plus one. Groups are runs of slots in id order.
    const auto lowest = [](std::uint64_t m) {
        return static_cast<unsigned>(std::countr_zero(m));
    };
    const unsigned groups =
        groupOf_[63 - static_cast<unsigned>(std::countl_zero(unit.resident))] +
        1;
    std::uint64_t lead = 0;
    if (activeGroup_ <= groups) {
        // Groups from the active one upward, then the wrapped ones from
        // 0: the first candidate at or above the active group's first
        // slot, else the first candidate, names the lead group.
        const std::uint64_t later = cand & fromGroup_[activeGroup_];
        const unsigned g = groupOf_[lowest(later != 0 ? later : cand)];
        lead = cand & fromGroup_[g] & ~fromGroup_[g + 1];
    } else {
        // The last-issued warp exited above every resident group. The
        // unsigned distance wraps below activeGroup_ - groups, so two
        // groups can tie; the lead is every group at the least distance.
        unsigned best = groups;
        for (std::uint64_t rest = cand; rest != 0;) {
            const unsigned g = groupOf_[lowest(rest)];
            const std::uint64_t group = rest & ~fromGroup_[g + 1];
            rest &= fromGroup_[g + 1];
            const unsigned dist = (g + groups - activeGroup_) % groups;
            if (dist < best) {
                best = dist;
                lead = group;
            } else if (dist == best) {
                lead |= group;
            }
        }
    }
    // Inside the lead: in-group indices from the one after the
    // last-issued warp's, wrapping. One group has one slot per index;
    // tied groups can have several, and the oldest of those goes first.
    const unsigned last =
        lastIssued_ ? lastIssued_->id() % kGroupSize : kGroupSize - 1;
    for (unsigned r = 1; r <= kGroupSize; ++r) {
        std::uint64_t m = lead & indexMask_[(last + r) % kGroupSize];
        if (m == 0)
            continue;
        unsigned best = lowest(m);
        for (m &= m - 1; m != 0; m &= m - 1) {
            if (unit.bySlot[lowest(m)]->age() < unit.bySlot[best]->age())
                best = lowest(m);
        }
        return best;
    }
    panic("TwoLevel: candidates outside the unit's slots");
}

}  // namespace bowsim

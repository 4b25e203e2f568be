#include "src/mem/lock_tracker.hpp"

#include <bit>
#include <utility>

#include "src/common/log.hpp"

namespace bowsim {

namespace {

/** The first table's capacity: room for 8 held words. */
constexpr size_t kMinCapacity = 16;

}  // namespace

size_t
LockTracker::probe(Addr addr) const
{
    const size_t mask = slots_.size() - 1;
    size_t i = home(addr);
    while (slots_[i].owner != 0 && slots_[i].addr != addr)
        i = (i + 1) & mask;
    return i;
}

void
LockTracker::grow()
{
    const std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kMinCapacity : 2 * old.size();
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot &s : old) {
        if (s.owner != 0)
            slots_[probe(s.addr)] = s;
    }
}

LockTransition
LockTracker::onCas(Addr addr, std::uint64_t warp_key, Word old_value,
                   Word expected, Word desired)
{
    if (warp_key == 0)
        panic("LockTracker: warp key 0 is the empty-slot marker");
    if (old_value == expected) {
        if (desired == 0)
            return onWrite(addr);  // CAS-release pattern
        if (2 * (held_ + 1) > slots_.size())
            grow();
        Slot &s = slots_[probe(addr)];
        if (s.owner == 0) {
            s.addr = addr;
            ++held_;
        }
        s.owner = warp_key;
        return {LockTransition::Kind::Acquire};
    }
    if (held_ != 0 && slots_[probe(addr)].owner == warp_key)
        return {LockTransition::Kind::IntraWarpFail};
    return {LockTransition::Kind::InterWarpFail};
}

LockTransition
LockTracker::onWrite(Addr addr)
{
    // Any write to a held lock word releases it: writing 0 is the
    // mutex-release idiom, and publishing a non-sentinel value is the
    // lock-free "unlock by publish" idiom (BH tree build). With no lock
    // held (every store of a sync-free kernel) there is nothing to find.
    if (held_ == 0)
        return {};
    size_t hole = probe(addr);
    if (slots_[hole].owner == 0)
        return {};
    const LockTransition released{LockTransition::Kind::Release,
                                  slots_[hole].owner};
    // Backward-shift erase: pull each later entry of the cluster into
    // the hole when the hole lies on its probe path (its home is not in
    // (hole, j]), so no probe ever crosses an emptied slot early.
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].owner != 0;
         j = (j + 1) & mask) {
        if (((j - home(slots_[j].addr)) & mask) >= ((j - hole) & mask)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{};
    --held_;
    return released;
}

}  // namespace bowsim

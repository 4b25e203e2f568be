#include "src/mem/lock_tracker.hpp"

namespace bowsim {

LockTransition
LockTracker::onCas(Addr addr, std::uint64_t warp_key, Word old_value,
                   Word expected, Word desired)
{
    if (old_value == expected) {
        if (desired == 0)
            return onWrite(addr);  // CAS-release pattern
        owner_[addr] = warp_key;
        return {LockTransition::Kind::Acquire};
    }
    auto it = owner_.find(addr);
    if (it != owner_.end() && it->second == warp_key)
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
    if (owner_.empty())
        return {};
    auto it = owner_.find(addr);
    if (it == owner_.end())
        return {};
    const LockTransition released{LockTransition::Kind::Release, it->second};
    owner_.erase(it);
    return released;
}

}  // namespace bowsim

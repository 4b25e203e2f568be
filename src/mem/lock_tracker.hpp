#ifndef BOWSIM_MEM_LOCK_TRACKER_HPP
#define BOWSIM_MEM_LOCK_TRACKER_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/common/types.hpp"

/**
 * @file
 * Measurement-only lock ownership tracker: the one model of which warp
 * holds which lock word. It reports each transition once, and every
 * observer consumes that result — the Figure 2 / Figure 12 outcome
 * counters and the sync profiler alike. The rule:
 *
 *  - a successful CAS that stores a nonzero value acquires the word;
 *  - a failed CAS is an intra-warp failure when the issuing warp holds
 *    the word, and an inter-warp failure otherwise;
 *  - a store, an exchange, or a successful CAS that stores 0 releases a
 *    held word.
 */

namespace bowsim {

/** What one observed access did to a lock word. */
struct LockTransition {
    enum class Kind { None, Acquire, Release, InterWarpFail, IntraWarpFail };
    Kind kind = Kind::None;
    /** Release only: the warp key that held the word. */
    std::uint64_t holder = 0;

    bool
    failed() const
    {
        return kind == Kind::InterWarpFail || kind == Kind::IntraWarpFail;
    }
};

class LockTracker {
  public:
    /**
     * Records a CAS attempt on @p addr by global warp @p warp_key.
     * @param old_value    value read by the CAS
     * @param expected     the compare value
     * @param desired      the swap value
     */
    LockTransition onCas(Addr addr, std::uint64_t warp_key, Word old_value,
                         Word expected, Word desired);

    /** Records a plain store or exchange to @p addr. */
    LockTransition onWrite(Addr addr);

    /** Number of currently-held tracked locks. */
    size_t held() const { return owner_.size(); }

  private:
    std::unordered_map<Addr, std::uint64_t> owner_;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_LOCK_TRACKER_HPP

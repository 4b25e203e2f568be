#ifndef BOWSIM_MEM_LOCK_TRACKER_HPP
#define BOWSIM_MEM_LOCK_TRACKER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

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
 *
 * Owners live in a flat open-addressed table (docs/PERF.md, "Lock
 * tracking and validation"), because every CAS lane and, while any lock
 * is held, every store lane probes it.
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
     * @param warp_key     nonzero: 0 marks an empty slot, and panics
     * @param old_value    value read by the CAS
     * @param expected     the compare value
     * @param desired      the swap value
     */
    LockTransition onCas(Addr addr, std::uint64_t warp_key, Word old_value,
                         Word expected, Word desired);

    /** Records a plain store or exchange to @p addr. */
    LockTransition onWrite(Addr addr);

    /** Number of currently-held tracked locks. */
    size_t held() const { return held_; }

  private:
    /** One table slot; owner 0 marks it empty. */
    struct Slot {
        Addr addr = 0;
        std::uint64_t owner = 0;
    };

    /** The slot @p addr hashes to. */
    size_t
    home(Addr addr) const
    {
        return static_cast<size_t>((addr * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot holding @p addr, or the empty slot that ends its probe. */
    size_t probe(Addr addr) const;
    void grow();

    /**
     * Power-of-two capacity (empty until the first acquire), kept at
     * least twice held_, so every probe ends at an empty slot.
     */
    std::vector<Slot> slots_;
    size_t held_ = 0;
    /** 64 - log2(capacity), set by grow(): home() keeps the hash's top
     *  bits. */
    unsigned shift_ = 64;
};

}  // namespace bowsim

#endif  // BOWSIM_MEM_LOCK_TRACKER_HPP

#ifndef BOWSIM_CORE_DDOS_HISTORY_HPP
#define BOWSIM_CORE_DDOS_HISTORY_HPP

#include <cstdint>
#include <vector>

#include "src/common/config.hpp"

/**
 * @file
 * DDOS per-warp path/value history registers and the spin-detection FSM
 * (Section IV-A, Fig. 7). Each executed `setp` of the profiled thread
 * inserts a hashed PC into the path history and the hashed values of the
 * setp's two source operands into the value history. The match-pointer
 * FSM looks for periodic repetition in *both* histories; sustained
 * repetition means the thread is re-executing the same instructions with
 * the same values — the definition of spinning (Li et al. [17]).
 */

namespace bowsim {

class HistoryRegisters {
  public:
    /** Detection FSM state (the 4-state FSM of Table III). */
    enum class State { Searching, Confirming, Spinning };

    explicit HistoryRegisters(const DdosConfig &cfg);

    /**
     * Records one setp execution by the profiled thread.
     *
     * @param pc_hash     hashed setp PC (path entry)
     * @param value_hash0 hashed first source operand value
     * @param value_hash1 hashed second source operand value
     */
    void insert(std::uint32_t pc_hash, std::uint32_t value_hash0,
                std::uint32_t value_hash1);

    /** True while the profiled thread is classified as spinning. */
    bool spinning() const { return state_ == State::Spinning; }

    State state() const { return state_; }
    unsigned matchPointer() const { return matchPointer_; }
    unsigned remainingMatches() const { return remainingMatches_; }

    /** Clears history and FSM (warp retirement / time-share switch). */
    void reset();

  private:
    struct Entry {
        std::uint32_t path;
        std::uint32_t value0;
        std::uint32_t value1;

        bool
        operator==(const Entry &o) const
        {
            return path == o.path && value0 == o.value0 &&
                   value1 == o.value1;
        }
    };

    /** The @p i-th most recent insertion (0 = the last), i < size_. */
    const Entry &
    recent(unsigned i) const
    {
        const unsigned j = head_ + i;
        return ring_[j < length_ ? j : j - length_];
    }

    unsigned length_;
    /** The last length_ insertions, a ring whose newest is at head_. */
    std::vector<Entry> ring_;
    unsigned head_ = 0;
    unsigned size_ = 0;
    State state_ = State::Searching;
    /** While Searching: candidate compare index; afterwards: loop period. */
    unsigned matchPointer_ = 0;
    unsigned remainingMatches_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_CORE_DDOS_HISTORY_HPP

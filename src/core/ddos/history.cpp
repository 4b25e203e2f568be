#include "src/core/ddos/history.hpp"

namespace bowsim {

HistoryRegisters::HistoryRegisters(const DdosConfig &cfg)
    : length_(cfg.historyLength), ring_(cfg.historyLength)
{
}

void
HistoryRegisters::reset()
{
    head_ = 0;
    size_ = 0;
    state_ = State::Searching;
    matchPointer_ = 0;
    remainingMatches_ = 0;
}

void
HistoryRegisters::insert(std::uint32_t pc_hash, std::uint32_t value_hash0,
                         std::uint32_t value_hash1)
{
    const Entry incoming{pc_hash, value_hash0, value_hash1};

    switch (state_) {
      case State::Searching: {
        // Compare the incoming entry against the candidate at index
        // matchPointer_ (0 = previous insertion). A match at distance d
        // means a loop of period d+1 setps.
        if (matchPointer_ < size_) {
            if (recent(matchPointer_) == incoming) {
                const unsigned period = matchPointer_ + 1;
                // The paper initializes Remaining Matches to the (new)
                // match pointer minus one, i.e. period - 1 further matches
                // confirm one full extra loop iteration.
                remainingMatches_ = period - 1;
                matchPointer_ = period;
                state_ = remainingMatches_ == 0 ? State::Spinning
                                                : State::Confirming;
            } else {
                // Advance the candidate; wrap when no loop shorter than
                // the history length exists.
                ++matchPointer_;
                if (matchPointer_ >= length_)
                    matchPointer_ = 0;
            }
        }
        break;
      }
      case State::Confirming:
      case State::Spinning: {
        const unsigned period = matchPointer_;
        if (period >= 1 && period - 1 < size_ &&
            recent(period - 1) == incoming) {
            if (state_ == State::Confirming && --remainingMatches_ == 0)
                state_ = State::Spinning;
        } else {
            state_ = State::Searching;
            matchPointer_ = 0;
            remainingMatches_ = 0;
        }
        break;
      }
    }

    if (length_ == 0)
        return;
    head_ = head_ == 0 ? length_ - 1 : head_ - 1;
    ring_[head_] = incoming;
    if (size_ < length_)
        ++size_;
}

}  // namespace bowsim

#ifndef BOWSIM_CORE_BOWS_ADAPTIVE_DELAY_HPP
#define BOWSIM_CORE_BOWS_ADAPTIVE_DELAY_HPP

#include <cstdint>

#include "src/common/config.hpp"

/**
 * @file
 * Adaptive back-off delay-limit estimation (Fig. 5 of the paper). Over
 * successive execution windows of T cycles, the estimator tries to
 * maximize useful-instructions / spin-overhead using Total/SIB dynamic
 * instruction counts as a proxy:
 *
 *     every window:
 *       if SIB insts > FRAC1 * total insts:        limit += step
 *       if total/SIB  < FRAC2 * prev total/SIB:    limit -= 2 * step
 *       clamp(limit, min, max)
 */

namespace bowsim {

class AdaptiveDelayEstimator {
  public:
    explicit AdaptiveDelayEstimator(const BowsConfig &cfg)
        : cfg_(cfg), limit_(cfg.minLimit)
    {
    }

    /** Counts one issued instruction (SIB or not) in this window. */
    void
    onInstruction(bool is_sib)
    {
        ++totalInsts_;
        if (is_sib)
            ++sibInsts_;
    }

    /** Advances time; applies the Fig. 5 update at window boundaries. */
    void
    tick(Cycle now)
    {
        if (now < windowEnd_)
            return;
        applyWindow();
        windowEnd_ = now + kBowsWindow;
    }

    Cycle limit() const { return limit_; }

    /** Cycle at which the next window boundary applies. */
    Cycle windowEnd() const { return windowEnd_; }

    /**
     * Replays tick(c) for every cycle c in [from, to] — with no
     * onInstruction() calls in between — in O(1), and returns the sum
     * over those cycles of limit()-after-tick (the contribution an idle
     * gap makes to KernelStats::delayLimitCycleSum).
     *
     * Equivalence with the per-cycle loop: boundaries inside the gap
     * land at windowEnd_, windowEnd_+T, ... The first one applies the
     * counters accumulated before the gap and may change the limit;
     * every later one sees zero counters, which leaves the limit
     * untouched (no increase trigger, no ratio defined, clamps are
     * idempotent) but still overwrites the prev-window counters — so
     * up to two applyWindow() calls replay any number of boundaries.
     *
     * Requires from <= to and windowEnd_ >= from (guaranteed when
     * tick() ran every cycle before the gap).
     */
    std::uint64_t
    fastForward(Cycle from, Cycle to)
    {
        if (windowEnd_ > to)
            return limit_ * (to - from + 1);
        const Cycle boundary = windowEnd_;
        std::uint64_t sum =
            limit_ * (boundary > from ? boundary - from : 0);
        applyWindow();
        const Cycle extra = (to - boundary) / kBowsWindow;
        if (extra >= 1)
            applyWindow();
        windowEnd_ = boundary + (extra + 1) * kBowsWindow;
        sum += limit_ * (to - boundary + 1);
        return sum;
    }

    /** Exposed for unit tests: force a window boundary. */
    void
    applyWindow()
    {
        if (sibInsts_ > kBowsFrac1 * static_cast<double>(totalInsts_))
            limit_ += kBowsDelayStep;
        if (sibInsts_ > 0 && prevSibInsts_ > 0) {
            double ratio = static_cast<double>(totalInsts_) / sibInsts_;
            double prev =
                static_cast<double>(prevTotalInsts_) / prevSibInsts_;
            if (ratio < kBowsFrac2 * prev) {
                Cycle dec = 2 * kBowsDelayStep;
                limit_ = limit_ > dec ? limit_ - dec : 0;
            }
        }
        if (limit_ > cfg_.maxLimit)
            limit_ = cfg_.maxLimit;
        if (limit_ < cfg_.minLimit)
            limit_ = cfg_.minLimit;
        prevTotalInsts_ = totalInsts_;
        prevSibInsts_ = sibInsts_;
        totalInsts_ = 0;
        sibInsts_ = 0;
    }

  private:
    BowsConfig cfg_;
    Cycle limit_;
    Cycle windowEnd_ = 0;
    std::uint64_t totalInsts_ = 0;
    std::uint64_t sibInsts_ = 0;
    std::uint64_t prevTotalInsts_ = 0;
    std::uint64_t prevSibInsts_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_CORE_BOWS_ADAPTIVE_DELAY_HPP

#ifndef BOWSIM_CORE_BOWS_BACKOFF_HPP
#define BOWSIM_CORE_BOWS_BACKOFF_HPP

#include <cstdint>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/core/bows/adaptive_delay.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * BOWS back-off unit (Section III, Fig. 8). The arbitration rules:
 *
 *  1. A warp that takes a spin-inducing branch enters the *backed-off*
 *     state and moves behind every non-backed-off warp.
 *  2. A backed-off warp may issue only when its pending back-off delay
 *     has expired; backed-off warps are ordered FIFO by entry time.
 *  3. When a backed-off warp issues, it leaves the backed-off state and
 *     its pending delay is re-armed to the current delay limit — setting
 *     a minimum spacing between consecutive spin-loop iterations. The
 *     delay is kept as an absolute deadline (BowsState::delayUntil), so
 *     no per-cycle counter ticking is needed.
 */

namespace bowsim {

class BackoffUnit {
  public:
    explicit BackoffUnit(const BowsConfig &cfg)
        : cfg_(cfg), estimator_(cfg),
          currentLimit_(cfg.adaptive ? estimator_.limit() : cfg.delayLimit)
    {
    }

    bool enabled() const { return cfg_.enabled; }

    /** Attaches the launch's event sink (BackoffEnter/Exit/Count). */
    void
    setTrace(trace::Tracer t, unsigned sm)
    {
        tracer_ = t;
        sm_ = sm;
    }

    /** Backed-off warps drop behind non-backed-off ones (ablation). */
    bool deprioritizes() const { return cfg_.enabled && cfg_.deprioritize; }

    /**
     * Warp @p w took a SIB: push it to the back of the priority queue.
     * Returns true when the warp newly entered the backed-off state.
     */
    bool
    onSpinBranch(Warp &w, Cycle now = 0)
    {
        if (!cfg_.enabled)
            return false;
        BowsState &b = w.bows();
        if (b.backedOff)
            return false;
        b.backedOff = true;
        b.backoffSeq = ++seq_;
        ++backedOffCount_;
        if (tracer_.enabled()) {
            const std::int32_t wid = static_cast<std::int32_t>(w.id());
            tracer_.emit(now, sm_, wid, trace::EventKind::BackoffEnter,
                         b.backoffSeq);
            tracer_.emit(now, sm_, -1, trace::EventKind::BackoffCount,
                         backedOffCount_);
        }
        return true;
    }

    /**
     * Warp @p w won arbitration at cycle @p now: leaving the backed-off
     * state arms its delay to the current limit L, so it may next issue
     * at cycle now + L.
     */
    void
    onIssue(Warp &w, Cycle now)
    {
        BowsState &b = w.bows();
        if (b.backedOff) {
            b.backedOff = false;
            --backedOffCount_;
            b.delayUntil = now + currentLimit_;
            if (tracer_.enabled()) {
                tracer_.emit(now, sm_, static_cast<std::int32_t>(w.id()),
                             trace::EventKind::BackoffExit, currentLimit_);
                tracer_.emit(now, sm_, -1, trace::EventKind::BackoffCount,
                             backedOffCount_);
            }
        }
    }

    /** True when BOWS permits @p w to compete for an issue slot at
     *  cycle @p now at all. */
    bool
    mayIssue(const Warp &w, Cycle now) const
    {
        if (!cfg_.enabled)
            return true;
        const BowsState &b = w.bows();
        return !b.backedOff || now >= b.delayUntil;
    }

    /** Currently backed-off warps (Fig. 11 occupancy accounting). */
    unsigned backedOffCount() const { return backedOffCount_; }

    /** Feeds the adaptive estimator; call once per issued instruction. */
    void
    onInstruction(bool is_sib)
    {
        if (cfg_.enabled && cfg_.adaptive)
            estimator_.onInstruction(is_sib);
    }

    /** Advances the adaptive estimator's execution window. */
    void
    tickWindow(Cycle now)
    {
        if (!cfg_.enabled || !cfg_.adaptive)
            return;
        estimator_.tick(now);
        currentLimit_ = estimator_.limit();
    }

    Cycle delayLimit() const { return currentLimit_; }

    /**
     * Replays tickWindow(c) for every cycle c in [from, to] of an idle
     * gap (no instructions issued, so the estimator's counters are
     * untouched) and returns the gap's per-cycle delayLimit() sum —
     * exactly what the cycle loop would have added to
     * KernelStats::delayLimitCycleSum one cycle at a time.
     */
    std::uint64_t
    fastForwardWindows(Cycle from, Cycle to)
    {
        if (!cfg_.enabled || !cfg_.adaptive)
            return static_cast<std::uint64_t>(currentLimit_) *
                   (to - from + 1);
        std::uint64_t sum = estimator_.fastForward(from, to);
        currentLimit_ = estimator_.limit();
        return sum;
    }

  private:
    BowsConfig cfg_;
    AdaptiveDelayEstimator estimator_;
    Cycle currentLimit_;
    std::uint64_t seq_ = 0;
    unsigned backedOffCount_ = 0;
    trace::Tracer tracer_;
    unsigned sm_ = 0;
};

}  // namespace bowsim

#endif  // BOWSIM_CORE_BOWS_BACKOFF_HPP

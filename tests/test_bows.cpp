#include <gtest/gtest.h>

#include <memory>

#include "src/core/bows/adaptive_delay.hpp"
#include "src/core/bows/backoff.hpp"

namespace bowsim {
namespace {

BowsConfig
fixedCfg(Cycle limit)
{
    BowsConfig cfg;
    cfg.enabled = true;
    cfg.adaptive = false;
    cfg.delayLimit = limit;
    return cfg;
}

std::unique_ptr<Warp>
makeWarp(unsigned id)
{
    return std::make_unique<Warp>(id, 0, id, id, 8, 2, kFullMask);
}

// ---------------------------------------------------------- BackoffUnit

TEST(Backoff, SpinBranchEntersBackedOffState)
{
    BackoffUnit b(fixedCfg(100));
    auto w = makeWarp(0);
    EXPECT_TRUE(b.mayIssue(*w, 5));
    EXPECT_TRUE(b.onSpinBranch(*w, 5));
    EXPECT_TRUE(w->bows().backedOff);
    // Fresh back-off: no delay armed yet, so it may issue when its turn
    // comes (at the back of the queue).
    EXPECT_TRUE(b.mayIssue(*w, 5));
    // Only the entry is an edge: a backed-off warp stays put.
    EXPECT_FALSE(b.onSpinBranch(*w, 6));
}

TEST(Backoff, IssueLeavesBackedOffAndArmsDelay)
{
    BackoffUnit b(fixedCfg(100));
    auto w = makeWarp(0);
    b.onSpinBranch(*w, 5);
    b.onIssue(*w, 10);
    EXPECT_FALSE(w->bows().backedOff);
    EXPECT_EQ(w->bows().delayUntil, 110u);
}

TEST(Backoff, PendingDelayBlocksNextSpinIteration)
{
    BackoffUnit b(fixedCfg(3));
    auto w = makeWarp(0);
    b.onSpinBranch(*w, 5);
    b.onIssue(*w, 10);       // leaves backed-off, arms delay = 3
    b.onSpinBranch(*w, 11);  // hits the SIB again before the delay expired
    EXPECT_FALSE(b.mayIssue(*w, 11));
    EXPECT_FALSE(b.mayIssue(*w, 12));
    EXPECT_TRUE(b.mayIssue(*w, 13));  // delay expires 3 cycles after issue
}

TEST(Backoff, FifoTicketsOrderBackedOffWarps)
{
    BackoffUnit b(fixedCfg(0));
    auto w0 = makeWarp(0);
    auto w1 = makeWarp(1);
    b.onSpinBranch(*w1);
    b.onSpinBranch(*w0);
    EXPECT_LT(w1->bows().backoffSeq, w0->bows().backoffSeq);
    // Re-backing-off an already backed-off warp keeps its ticket.
    std::uint64_t ticket = w1->bows().backoffSeq;
    b.onSpinBranch(*w1);
    EXPECT_EQ(w1->bows().backoffSeq, ticket);
}

TEST(Backoff, DisabledUnitIsTransparent)
{
    BowsConfig cfg;
    cfg.enabled = false;
    BackoffUnit b(cfg);
    auto w = makeWarp(0);
    EXPECT_FALSE(b.onSpinBranch(*w, 5));
    EXPECT_FALSE(w->bows().backedOff);
    EXPECT_TRUE(b.mayIssue(*w, 5));
}

TEST(Backoff, ZeroLimitDeprioritizesWithoutThrottling)
{
    BackoffUnit b(fixedCfg(0));
    auto w = makeWarp(0);
    b.onSpinBranch(*w, 5);
    b.onIssue(*w, 10);
    EXPECT_EQ(w->bows().delayUntil, 10u);
    EXPECT_TRUE(b.onSpinBranch(*w, 10));
    // Queued last, but never delay-blocked.
    EXPECT_TRUE(b.mayIssue(*w, 10));
}

// -------------------------------------------------- AdaptiveDelayEstimator

BowsConfig
adaptiveCfg()
{
    BowsConfig cfg;
    cfg.enabled = true;
    cfg.adaptive = true;
    cfg.minLimit = 0;
    cfg.maxLimit = 10000;
    return cfg;
}

TEST(AdaptiveDelay, GrowsUnderHeavySpinning)
{
    AdaptiveDelayEstimator e(adaptiveCfg());
    for (int w = 0; w < 4; ++w) {
        for (int i = 0; i < 100; ++i)
            e.onInstruction(i % 5 == 0);  // 20% SIBs
        e.applyWindow();
    }
    EXPECT_EQ(e.limit(), 4u * 250u);
}

TEST(AdaptiveDelay, StaysAtZeroWithoutSpinning)
{
    AdaptiveDelayEstimator e(adaptiveCfg());
    for (int w = 0; w < 4; ++w) {
        for (int i = 0; i < 100; ++i)
            e.onInstruction(false);
        e.applyWindow();
    }
    EXPECT_EQ(e.limit(), 0u);
}

TEST(AdaptiveDelay, BacksOffByDoubleStepWhenUsefulRatioDrops)
{
    AdaptiveDelayEstimator e(adaptiveCfg());
    // Window 1: 20% SIBs (ratio total/SIB = 5) -> +step.
    for (int i = 0; i < 100; ++i)
        e.onInstruction(i % 5 == 0);
    e.applyWindow();
    ASSERT_EQ(e.limit(), 250u);
    // Window 2: ratio collapses to 2 (< 0.8 * 5): +step - 2*step.
    for (int i = 0; i < 100; ++i)
        e.onInstruction(i % 2 == 0);
    e.applyWindow();
    EXPECT_EQ(e.limit(), 0u);  // 250 + 250 - 500
}

TEST(AdaptiveDelay, ClampsToMaxLimit)
{
    BowsConfig cfg = adaptiveCfg();
    cfg.maxLimit = 600;
    AdaptiveDelayEstimator e(cfg);
    for (int w = 0; w < 10; ++w) {
        for (int i = 0; i < 100; ++i)
            e.onInstruction(i % 5 == 0);
        e.applyWindow();
    }
    EXPECT_EQ(e.limit(), 600u);
}

TEST(AdaptiveDelay, ClampsToMinLimit)
{
    BowsConfig cfg = adaptiveCfg();
    cfg.minLimit = 500;
    AdaptiveDelayEstimator e(cfg);
    EXPECT_EQ(e.limit(), 500u);
    // Degrading ratios cannot push the limit below the floor.
    for (int i = 0; i < 100; ++i)
        e.onInstruction(i % 5 == 0);
    e.applyWindow();
    for (int i = 0; i < 100; ++i)
        e.onInstruction(i % 2 == 0);
    e.applyWindow();
    EXPECT_GE(e.limit(), 500u);
}

TEST(AdaptiveDelay, TickHonoursWindowBoundaries)
{
    AdaptiveDelayEstimator e(adaptiveCfg());
    for (int i = 0; i < 100; ++i)
        e.onInstruction(true);
    e.tick(10);   // first tick sets the window end
    e.tick(500);  // still inside the window: no update
    EXPECT_EQ(e.limit(), 250u);  // first tick applied one window
    for (int i = 0; i < 100; ++i)
        e.onInstruction(true);
    e.tick(1200);  // past the boundary: apply
    EXPECT_EQ(e.limit(), 500u);
}

TEST(AdaptiveDelay, FastForwardMatchesPerCycleTicks)
{
    // The idle-gap replay must be indistinguishable from calling tick()
    // on every cycle of the gap: same final limit, same window phase,
    // same contribution to delayLimitCycleSum — including across gaps
    // that swallow several window boundaries.
    const Cycle gaps[][2] = {
        {20, 40},      // inside the first window: no boundary
        {900, 1100},   // one boundary (limit may change)
        {1500, 4700},  // three boundaries (prev counters must zero)
    };
    for (const auto &gap : gaps) {
        AdaptiveDelayEstimator fast(adaptiveCfg());
        AdaptiveDelayEstimator ref(adaptiveCfg());
        // Pressure before the gap so the first in-gap boundary moves
        // the limit, then run both estimators to the cycle before it.
        for (int i = 0; i < 100; ++i) {
            fast.onInstruction(i % 4 == 0);
            ref.onInstruction(i % 4 == 0);
        }
        for (Cycle c = 1; c < gap[0]; ++c) {
            fast.tick(c);
            ref.tick(c);
        }
        std::uint64_t ref_sum = 0;
        for (Cycle c = gap[0]; c <= gap[1]; ++c) {
            ref.tick(c);
            ref_sum += ref.limit();
        }
        EXPECT_EQ(fast.fastForward(gap[0], gap[1]), ref_sum);
        EXPECT_EQ(fast.limit(), ref.limit());
        EXPECT_EQ(fast.windowEnd(), ref.windowEnd());
        // The gap must also leave the ratio baseline identical: the
        // next live window's update depends on the prev counters.
        for (int i = 0; i < 60; ++i) {
            fast.onInstruction(i % 2 == 0);
            ref.onInstruction(i % 2 == 0);
        }
        for (Cycle c = gap[1] + 1; c <= gap[1] + 2000; ++c) {
            fast.tick(c);
            ref.tick(c);
        }
        EXPECT_EQ(fast.limit(), ref.limit());
    }
}

TEST(Backoff, FastForwardWindowsSumsStaticLimit)
{
    // Non-adaptive configs contribute limit x gap-length and change no
    // estimator state.
    BackoffUnit b(fixedCfg(300));
    EXPECT_EQ(b.fastForwardWindows(10, 19), 10u * 300u);
    EXPECT_EQ(b.delayLimit(), 300u);
}

TEST(Backoff, AdaptiveLimitFlowsIntoIssuedWarps)
{
    BowsConfig cfg = adaptiveCfg();
    BackoffUnit b(cfg);
    auto w = makeWarp(0);
    // Build up spinning pressure over one window.
    for (int i = 0; i < 100; ++i)
        b.onInstruction(i % 3 == 0);
    b.tickWindow(10);
    b.tickWindow(2000);
    EXPECT_GT(b.delayLimit(), 0u);
    b.onSpinBranch(*w, 2000);
    b.onIssue(*w, 2001);
    EXPECT_EQ(w->bows().delayUntil, 2001 + b.delayLimit());
}

}  // namespace
}  // namespace bowsim

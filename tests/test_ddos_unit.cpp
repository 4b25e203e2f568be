#include <gtest/gtest.h>

#include "src/core/ddos/ddos_unit.hpp"

namespace bowsim {
namespace {

DdosConfig
unitCfg()
{
    DdosConfig cfg;
    cfg.hash = HashKind::Xor;
    cfg.hashBits = 8;
    cfg.historyLength = 8;
    cfg.confidenceThreshold = 4;
    return cfg;
}

/** Drives one spin iteration (CAS-check + loop-check setps + branch). */
void
spinIteration(DdosUnit &u, unsigned warp, Cycle &now)
{
    u.onSetp(warp, 4, /*cas result*/ 1, 0, now++);
    u.onSetp(warp, 9, /*done flag*/ 0, 0, now++);
    u.onBackwardBranch(warp, 10, now++);
}

TEST(DdosUnit, ConfirmsSibAfterRepeatedSpinIterations)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    for (int i = 0; i < 10 && !u.isSib(10); ++i)
        spinIteration(u, 0, now);
    EXPECT_TRUE(u.isSib(10));
    EXPECT_TRUE(u.table().entries().count(10));
}

TEST(DdosUnit, NormalLoopNeverConfirmed)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    for (Word i = 0; i < 64; ++i) {
        u.onSetp(0, 4, i, 100, now++);  // induction variable changes
        u.onBackwardBranch(0, 5, now++);
    }
    EXPECT_FALSE(u.isSib(5));
}

TEST(DdosUnit, WarpsTrackIndependently)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    // Warp 0 spins; warp 1 runs a normal loop over the same PCs.
    for (int i = 0; i < 3; ++i) {
        spinIteration(u, 0, now);
        u.onSetp(1, 4, i, 0, now++);
        u.onSetp(1, 9, i + 1, 0, now++);
    }
    EXPECT_TRUE(u.isSpinning(0));
    EXPECT_FALSE(u.isSpinning(1));
}

TEST(DdosUnit, NonSpinningWarpsDecayConfidence)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    // Two spinning observations...
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    ASSERT_TRUE(u.table().entries().count(10));
    unsigned conf_before = u.table().entries().at(10).confidence;
    // ...then a non-spinning warp takes the same branch.
    u.onSetp(1, 4, 1, 0, now++);
    u.onBackwardBranch(1, 10, now++);
    ASSERT_TRUE(u.table().entries().count(10));
    EXPECT_LT(u.table().entries().at(10).confidence, conf_before);
}

TEST(DdosUnit, ResetWarpClearsSpinningState)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    ASSERT_TRUE(u.isSpinning(0));
    u.resetWarp(0);
    EXPECT_FALSE(u.isSpinning(0));
}

TEST(DdosUnit, AccuracyRecordsDetection)
{
    DdosUnit u(unitCfg(), 8);
    Cycle now = 100;
    for (int i = 0; i < 10; ++i)
        spinIteration(u, 0, now);
    auto report = u.accuracy().report({10});
    EXPECT_EQ(report.trueBranches, 1u);
    EXPECT_EQ(report.trueDetected, 1u);
    EXPECT_EQ(report.falseBranches, 0u);
}

TEST(DdosUnit, AccuracyScoresFalseDetection)
{
    // Ground truth says PC 10 is NOT a spin branch, but the values the
    // profiled thread produces repeat (aliasing) -> false detection.
    DdosUnit u(unitCfg(), 8);
    Cycle now = 0;
    for (int i = 0; i < 10; ++i)
        spinIteration(u, 0, now);
    auto report = u.accuracy().report({});
    EXPECT_EQ(report.falseBranches, 1u);
    EXPECT_EQ(report.falseDetected, 1u);
    EXPECT_GT(report.fsdr(), 0.0);
}

TEST(DdosUnit, TimeSharingOnlyProfilesTheOwner)
{
    DdosConfig cfg = unitCfg();
    cfg.timeShare = true;
    DdosUnit u(cfg, 4);
    Cycle now = 0;
    // Warp 0 owns the shared registers during the first epoch.
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    EXPECT_TRUE(u.isSpinning(0));
    EXPECT_FALSE(u.isSpinning(1));  // not the owner, never profiled
}

TEST(DdosUnit, TimeSharingRotatesOwnershipAcrossEpochs)
{
    DdosConfig cfg = unitCfg();
    cfg.timeShare = true;
    DdosUnit u(cfg, 2);
    Cycle now = 0;
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    spinIteration(u, 0, now);
    ASSERT_TRUE(u.isSpinning(0));
    // Jump past the epoch: ownership rotates to warp 1 and the shared
    // history resets.
    now = kTimeShareEpoch + kTimeShareEpoch / 2;
    u.onSetp(1, 4, 1, 0, now);
    EXPECT_FALSE(u.isSpinning(0));
    // Warp 1 can now be detected.
    for (int i = 0; i < 3; ++i)
        spinIteration(u, 1, now);
    EXPECT_TRUE(u.isSpinning(1));
}

}  // namespace
}  // namespace bowsim

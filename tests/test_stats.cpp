#include <gtest/gtest.h>

#include "src/stats/ddos_accuracy.hpp"
#include "src/stats/stats.hpp"

namespace bowsim {
namespace {

TEST(Stats, SimdEfficiencyFullAndHalf)
{
    KernelStats s;
    s.warpInstructions = 10;
    s.activeLaneSum = 10 * kWarpSize;
    EXPECT_DOUBLE_EQ(s.simdEfficiency(), 1.0);
    s.activeLaneSum = 10 * kWarpSize / 2;
    EXPECT_DOUBLE_EQ(s.simdEfficiency(), 0.5);
}

TEST(Stats, DerivedMetricsHandleZeroDenominators)
{
    KernelStats s;
    EXPECT_DOUBLE_EQ(s.simdEfficiency(), 0.0);
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.syncInstructionFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.backedOffFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.avgDelayLimit(), 0.0);
}

TEST(Stats, MillisecondsUsesClock)
{
    KernelStats s;
    s.cycles = 700000;
    EXPECT_DOUBLE_EQ(s.milliseconds(700.0), 1.0);
}

TEST(Stats, AccumulationSumsEverything)
{
    KernelStats a;
    a.cycles = 10;
    a.warpInstructions = 100;
    a.outcomes.lockSuccess = 5;
    a.mem.l2Accesses = 7;
    a.mem.linkPackets = 3;
    a.smCycles = 40;
    a.energyNj = 1.5;
    a.staticEnergyNj = 0.25;
    KernelStats b = a;
    a += b;
    EXPECT_EQ(a.cycles, 20u);
    EXPECT_EQ(a.warpInstructions, 200u);
    EXPECT_EQ(a.outcomes.lockSuccess, 10u);
    EXPECT_EQ(a.mem.l2Accesses, 14u);
    EXPECT_EQ(a.mem.linkPackets, 6u);
    EXPECT_EQ(a.smCycles, 80u);
    // Both energies cover every launch's cycles: the static share is
    // charged per SM-cycle, so it sums like smCycles.
    EXPECT_DOUBLE_EQ(a.energyNj, 3.0);
    EXPECT_DOUBLE_EQ(a.staticEnergyNj, 0.5);
}

TEST(Stats, OutcomeTotals)
{
    SyncOutcomes o;
    o.lockSuccess = 1;
    o.interWarpFail = 2;
    o.intraWarpFail = 3;
    o.waitExitSuccess = 4;
    o.waitExitFail = 5;
    EXPECT_EQ(o.total(), 15u);
}

TEST(Stats, SummaryMentionsKernelName)
{
    KernelStats s;
    s.kernel = "HT";
    s.cycles = 100;
    s.warpInstructions = 50;
    EXPECT_NE(summary(s).find("HT"), std::string::npos);
}

// -------------------------------------------------------- DdosAccuracy --

TEST(DdosAccuracyReport, PerfectDetection)
{
    DdosAccuracy acc;
    acc.onBackwardBranch(10, 100);
    acc.onBackwardBranch(10, 200);
    acc.onConfirmed(10, 150);
    acc.onBackwardBranch(10, 1100);
    auto r = acc.report({10});
    EXPECT_DOUBLE_EQ(r.tsdr(), 1.0);
    EXPECT_DOUBLE_EQ(r.fsdr(), 0.0);
    EXPECT_DOUBLE_EQ(r.dprTrue(), 50.0 / 1000.0);
}

TEST(DdosAccuracyReport, MissedDetection)
{
    DdosAccuracy acc;
    acc.onBackwardBranch(10, 100);
    acc.onBackwardBranch(20, 100);
    acc.onConfirmed(20, 150);
    auto r = acc.report({10, 20});
    EXPECT_DOUBLE_EQ(r.tsdr(), 0.5);
}

TEST(DdosAccuracyReport, FalseDetection)
{
    DdosAccuracy acc;
    acc.onBackwardBranch(30, 100);
    acc.onConfirmed(30, 200);
    auto r = acc.report({});
    EXPECT_DOUBLE_EQ(r.fsdr(), 1.0);
    EXPECT_EQ(r.falseDetected, 1u);
}

TEST(DdosAccuracyReport, EmptyKernelDefaults)
{
    DdosAccuracy acc;
    auto r = acc.report({});
    EXPECT_DOUBLE_EQ(r.tsdr(), 1.0);  // vacuous truth: nothing to find
    EXPECT_DOUBLE_EQ(r.fsdr(), 0.0);
}

TEST(DdosAccuracyReport, MergeTakesEarliestTimes)
{
    DdosAccuracy a;
    a.onBackwardBranch(10, 500);
    a.onConfirmed(10, 900);
    DdosAccuracy b;
    b.onBackwardBranch(10, 100);
    b.onBackwardBranch(10, 2000);
    b.onConfirmed(10, 700);
    a.merge(b);
    auto r = a.report({10});
    EXPECT_EQ(r.trueDetected, 1u);
    // firstSeen = 100, confirmed = 700, lastSeen = 2000.
    EXPECT_NEAR(r.dprTrue(), 600.0 / 1900.0, 1e-9);
}

TEST(DdosAccuracyReport, ConfirmationTimeIsSticky)
{
    DdosAccuracy acc;
    acc.onBackwardBranch(10, 100);
    acc.onConfirmed(10, 150);
    acc.onConfirmed(10, 400);  // later confirmations ignored
    acc.onBackwardBranch(10, 1100);
    auto r = acc.report({10});
    EXPECT_DOUBLE_EQ(r.dprTrue(), 50.0 / 1000.0);
}

}  // namespace
}  // namespace bowsim

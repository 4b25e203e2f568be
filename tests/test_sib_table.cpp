#include <gtest/gtest.h>

#include "src/core/ddos/sib_table.hpp"

namespace bowsim {
namespace {

DdosConfig
tableCfg(unsigned threshold = 4)
{
    DdosConfig cfg;
    cfg.confidenceThreshold = threshold;
    return cfg;
}

TEST(SibTable, ConfirmsAfterThresholdSpinningExecutions)
{
    SibTable t(tableCfg());
    for (int i = 0; i < 3; ++i) {
        t.onSpinningBranch(0x98);
        EXPECT_FALSE(t.isConfirmed(0x98)) << "after " << i + 1;
    }
    t.onSpinningBranch(0x98);
    EXPECT_TRUE(t.isConfirmed(0x98));
}

TEST(SibTable, NonSpinningExecutionsDecayConfidence)
{
    SibTable t(tableCfg());
    t.onSpinningBranch(0x98);
    t.onSpinningBranch(0x98);
    t.onNonSpinningBranch(0x98);
    t.onNonSpinningBranch(0x98);
    // Confidence back to zero: entry dropped, two more spinning hits do
    // not confirm.
    t.onSpinningBranch(0x98);
    t.onSpinningBranch(0x98);
    EXPECT_FALSE(t.isConfirmed(0x98));
}

TEST(SibTable, AliasingNoiseSuppressedByDecay)
{
    // Alternating spinning/non-spinning observations never confirm.
    SibTable t(tableCfg());
    for (int i = 0; i < 20; ++i) {
        t.onSpinningBranch(0x40);
        t.onNonSpinningBranch(0x40);
    }
    EXPECT_FALSE(t.isConfirmed(0x40));
}

TEST(SibTable, NonSpinningOnUnknownBranchIsIgnored)
{
    SibTable t(tableCfg());
    t.onNonSpinningBranch(0x123);
    EXPECT_EQ(t.size(), 0u);
}

TEST(SibTable, TracksMultipleBranches)
{
    SibTable t(tableCfg());
    for (int i = 0; i < 4; ++i) {
        t.onSpinningBranch(0x10);
        t.onSpinningBranch(0x20);
    }
    EXPECT_TRUE(t.isConfirmed(0x10));
    EXPECT_TRUE(t.isConfirmed(0x20));
    EXPECT_EQ(t.size(), 2u);
}

TEST(SibTable, CapacityEvictsLowestConfidenceUnconfirmed)
{
    SibTable t(tableCfg());
    // Fill the table: one entry at confidence 1, the rest at 2.
    t.onSpinningBranch(0x20);
    for (Pc pc = 1; pc < kSibTableEntries; ++pc) {
        t.onSpinningBranch(pc);
        t.onSpinningBranch(pc);
    }
    ASSERT_EQ(t.size(), kSibTableEntries);
    // Table full; a new branch evicts the weakest entry (0x20).
    EXPECT_EQ(t.onSpinningBranch(0x30), std::optional<Pc>(0x20));
    EXPECT_EQ(t.size(), kSibTableEntries);
    EXPECT_TRUE(t.entries().count(1));
    EXPECT_TRUE(t.entries().count(0x30));
    EXPECT_FALSE(t.entries().count(0x20));
}

TEST(SibTable, ConfirmedEntriesAreNotEvicted)
{
    SibTable t(tableCfg(2));
    for (Pc pc = 0; pc < kSibTableEntries; ++pc) {
        t.onSpinningBranch(pc);
        t.onSpinningBranch(pc);
        ASSERT_TRUE(t.isConfirmed(pc));
    }
    // A new branch cannot displace a confirmed SIB.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(t.onSpinningBranch(0x100), std::nullopt);
    EXPECT_EQ(t.size(), kSibTableEntries);
    EXPECT_TRUE(t.isConfirmed(0));
    EXPECT_FALSE(t.isConfirmed(0x100));
}

TEST(SibTable, ConfidenceSaturatesAtThreshold)
{
    SibTable t(tableCfg(4));
    for (int i = 0; i < 100; ++i)
        t.onSpinningBranch(0x10);
    EXPECT_EQ(t.entries().at(0x10).confidence, 4u);
}

TEST(SibTable, PeakOccupancyHighWaterMark)
{
    SibTable t(tableCfg());
    for (Pc pc = 0; pc < 5; ++pc)
        t.onSpinningBranch(pc);
    EXPECT_EQ(t.peakOccupancy(), 5u);
}

/** Property: threshold t requires exactly t spinning executions. */
class SibThreshold : public ::testing::TestWithParam<unsigned> {};

TEST_P(SibThreshold, ExactlyThresholdHitsConfirm)
{
    unsigned threshold = GetParam();
    SibTable t(tableCfg(threshold));
    for (unsigned i = 0; i + 1 < threshold; ++i) {
        t.onSpinningBranch(0x50);
        EXPECT_FALSE(t.isConfirmed(0x50));
    }
    t.onSpinningBranch(0x50);
    EXPECT_TRUE(t.isConfirmed(0x50));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SibThreshold,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u));

}  // namespace
}  // namespace bowsim

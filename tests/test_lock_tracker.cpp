#include <gtest/gtest.h>

#include "src/mem/lock_tracker.hpp"

namespace bowsim {
namespace {

using Kind = LockTransition::Kind;

TEST(LockTracker, SuccessfulAcquireRecordsOwner)
{
    LockTracker t;
    EXPECT_EQ(t.onCas(0x100, 7, 0, 0, 1).kind, Kind::Acquire);
    EXPECT_EQ(t.held(), 1u);
}

TEST(LockTracker, FailByOtherWarpIsInterWarp)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    EXPECT_EQ(t.onCas(0x100, 9, 1, 0, 1).kind, Kind::InterWarpFail);
}

TEST(LockTracker, FailBySameWarpIsIntraWarp)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    EXPECT_EQ(t.onCas(0x100, 7, 1, 0, 1).kind, Kind::IntraWarpFail);
}

TEST(LockTracker, UnknownOwnerDefaultsToInterWarp)
{
    LockTracker t;
    EXPECT_EQ(t.onCas(0x200, 7, 1, 0, 1).kind, Kind::InterWarpFail);
}

TEST(LockTracker, ExchReleaseClearsOwnership)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    const LockTransition r = t.onWrite(0x100);
    EXPECT_EQ(r.kind, Kind::Release);
    EXPECT_EQ(r.holder, 7u);
    EXPECT_EQ(t.held(), 0u);
    EXPECT_EQ(t.onCas(0x100, 9, 0, 0, 1).kind, Kind::Acquire);
}

TEST(LockTracker, PublishReleaseClearsOwnershipToo)
{
    // BH tree build unlocks by publishing a non-zero value; the tracker
    // sees a write either way.
    LockTracker t;
    t.onCas(0x300, 7, 0, 0, 1);
    EXPECT_EQ(t.onWrite(0x300).kind, Kind::Release);
    EXPECT_EQ(t.held(), 0u);
}

TEST(LockTracker, CasReleasePatternClearsOwnership)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    // CAS(lock, 1, 0) releases.
    const LockTransition r = t.onCas(0x100, 7, 1, 1, 0);
    EXPECT_EQ(r.kind, Kind::Release);
    EXPECT_EQ(r.holder, 7u);
    EXPECT_EQ(t.held(), 0u);
}

TEST(LockTracker, WriteToUntrackedWordIsNoTransition)
{
    // A store or a CAS-to-0 on a word nobody holds releases nothing.
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    EXPECT_EQ(t.onWrite(0x9999).kind, Kind::None);
    EXPECT_EQ(t.onCas(0x200, 7, 1, 1, 0).kind, Kind::None);
    EXPECT_EQ(t.held(), 1u);
    // A release happens once: the second write finds the word free.
    EXPECT_EQ(t.onWrite(0x100).kind, Kind::Release);
    EXPECT_EQ(t.onWrite(0x100).kind, Kind::None);
}

TEST(LockTracker, IndependentLocksTrackIndependently)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    t.onCas(0x200, 9, 0, 0, 1);
    EXPECT_EQ(t.onCas(0x100, 9, 1, 0, 1).kind, Kind::InterWarpFail);
    EXPECT_EQ(t.onCas(0x200, 9, 1, 0, 1).kind, Kind::IntraWarpFail);
    EXPECT_EQ(t.held(), 2u);
}

TEST(LockTracker, ReacquireAfterReleaseSwitchesOwner)
{
    LockTracker t;
    t.onCas(0x100, 7, 0, 0, 1);
    t.onWrite(0x100);
    t.onCas(0x100, 9, 0, 0, 1);
    EXPECT_EQ(t.onCas(0x100, 7, 1, 0, 1).kind, Kind::InterWarpFail);
    EXPECT_EQ(t.onCas(0x100, 9, 1, 0, 1).kind, Kind::IntraWarpFail);
    EXPECT_EQ(t.onWrite(0x100).holder, 9u);
}

TEST(LockTracker, CasWithNonLockExpectedValue)
{
    // BH-style CAS(slot, observed, LOCK): success when old == expected.
    LockTracker t;
    EXPECT_EQ(t.onCas(0x400, 7, 0x55, 0x55, 1).kind, Kind::Acquire);
    EXPECT_EQ(t.onCas(0x400, 9, 1, 0x55, 1).kind, Kind::InterWarpFail);
}

}  // namespace
}  // namespace bowsim

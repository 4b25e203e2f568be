#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/common/log.hpp"
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

TEST(LockTracker, ZeroWarpKeyPanics)
{
    // Owner 0 marks an empty table slot, so 0 is never a warp key
    // (LaunchState::warpKey adds 1 to the warp's age).
    LockTracker t;
    EXPECT_THROW(t.onCas(0x100, 0, 0, 0, 1), PanicError);
    EXPECT_THROW(t.onCas(0x100, 0, 1, 0, 1), PanicError);
    EXPECT_EQ(t.held(), 0u);
}

/** The tracker's rules over a node-based map: the reference model. */
class MapModel {
  public:
    LockTransition
    onCas(Addr addr, std::uint64_t warp_key, Word old_value, Word expected,
          Word desired)
    {
        if (old_value == expected) {
            if (desired == 0)
                return onWrite(addr);
            owner_[addr] = warp_key;
            return {Kind::Acquire};
        }
        auto it = owner_.find(addr);
        if (it != owner_.end() && it->second == warp_key)
            return {Kind::IntraWarpFail};
        return {Kind::InterWarpFail};
    }

    LockTransition
    onWrite(Addr addr)
    {
        auto it = owner_.find(addr);
        if (it == owner_.end())
            return {};
        const LockTransition released{Kind::Release, it->second};
        owner_.erase(it);
        return released;
    }

    size_t held() const { return owner_.size(); }

  private:
    std::unordered_map<Addr, std::uint64_t> owner_;
};

/**
 * One round against a fresh tracker and model: a phase that mostly
 * acquires, one that mostly releases, then a write to every word.
 * @return the most words held at once.
 */
size_t
runRound(std::mt19937_64 &rng, const std::vector<Addr> &words,
         size_t &calls)
{
    const std::uint64_t keys[] = {1, 2, 3, 7, 40, (1ull << 48) + 1,
                                  (1ull << 48) + 2};
    LockTracker tracker;
    MapModel model;
    size_t max_held = 0;
    auto check = [&](const LockTransition &got, const LockTransition &want) {
        ++calls;
        ASSERT_EQ(got.kind, want.kind) << "call " << calls;
        ASSERT_EQ(got.holder, want.holder) << "call " << calls;
        ASSERT_EQ(tracker.held(), model.held()) << "call " << calls;
        max_held = std::max(max_held, model.held());
    };
    for (const unsigned acquire : {60u, 15u}) {
        for (size_t n = 0; n < 15 * words.size(); ++n) {
            const Addr a = words[rng() % words.size()];
            const std::uint64_t key = keys[rng() % std::size(keys)];
            const unsigned roll = static_cast<unsigned>(rng() % 100);
            if (roll < acquire) {
                // Successful CAS storing a nonzero value; old == expected
                // is not always 0 (the BH-style CAS(slot, observed, LOCK)).
                const Word seen = static_cast<Word>(rng() % 3);
                check(tracker.onCas(a, key, seen, seen, 1 + seen),
                      model.onCas(a, key, seen, seen, 1 + seen));
            } else if (roll < acquire + 20) {
                check(tracker.onCas(a, key, 1, 0, 1),
                      model.onCas(a, key, 1, 0, 1));
            } else if (roll < acquire + 30) {
                check(tracker.onCas(a, key, 1, 1, 0),
                      model.onCas(a, key, 1, 1, 0));
            } else {
                check(tracker.onWrite(a), model.onWrite(a));
            }
            if (::testing::Test::HasFatalFailure())
                return max_held;
        }
    }
    for (Addr a : words) {
        check(tracker.onWrite(a), model.onWrite(a));
        if (::testing::Test::HasFatalFailure())
            return max_held;
    }
    EXPECT_EQ(tracker.held(), 0u);
    return max_held;
}

TEST(LockTracker, MatchesTheMapModelOverASeededSequence)
{
    // Most rounds draw 8 lock words, so their 16-slot table runs up to
    // half full and erases often shift entries back across its wrap
    // (with this seed, 136 erases scan across it and 53 move an entry
    // over it). Every 50th round draws 400 and holds about 300 at once,
    // so its table grows six times, from 16 slots to 1024.
    std::mt19937_64 rng(20181020);
    size_t calls = 0;
    size_t max_held = 0;
    for (int round = 0; calls < 100000; ++round) {
        std::vector<Addr> words(round % 50 == 49 ? 400 : 8);
        for (Addr &a : words)
            a = 0x10000000 + 8 * (rng() % 0x100000);
        max_held = std::max(max_held, runRound(rng, words, calls));
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(max_held, 256u);
}

}  // namespace
}  // namespace bowsim

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/mem/coalescer.hpp"

namespace bowsim {
namespace {

std::array<Addr, kWarpSize>
laneAddrs(std::function<Addr(unsigned)> f)
{
    std::array<Addr, kWarpSize> a{};
    for (unsigned i = 0; i < kWarpSize; ++i)
        a[i] = f(i);
    return a;
}

TEST(Coalescer, UnitStride64BitAccessesNeedTwoLines)
{
    // 32 lanes x 8 bytes = 256 B = two 128 B lines.
    auto addrs = laneAddrs([](unsigned l) { return 0x1000 + 8 * l; });
    auto lines = coalesce(addrs, kFullMask);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[1], 0x1080u);
}

TEST(Coalescer, SameAddressCollapsesToOneLine)
{
    auto addrs = laneAddrs([](unsigned) { return Addr{0x2008}; });
    auto lines = coalesce(addrs, kFullMask);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x2000u);
}

TEST(Coalescer, StridedAccessesScatterToManyLines)
{
    auto addrs =
        laneAddrs([](unsigned l) { return Addr{l} * 1024; });
    auto lines = coalesce(addrs, kFullMask);
    EXPECT_EQ(lines.size(), kWarpSize);
}

TEST(Coalescer, MaskSelectsParticipatingLanes)
{
    auto addrs =
        laneAddrs([](unsigned l) { return Addr{l} * 1024; });
    auto lines = coalesce(addrs, 0x5);  // lanes 0 and 2
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 2048u);
}

TEST(Coalescer, EmptyMaskProducesNoTransactions)
{
    auto addrs = laneAddrs([](unsigned l) { return Addr{l}; });
    EXPECT_TRUE(coalesce(addrs, 0).empty());
}

TEST(Coalescer, MisalignedRunStraddlesALineBoundary)
{
    // 8-byte accesses starting 8 bytes before a boundary.
    auto addrs =
        laneAddrs([](unsigned l) { return 0x1078 + 8 * Addr{l}; });
    auto lines = coalesce(addrs, 0x3);  // lanes 0,1 straddle
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[1], 0x1080u);
}

TEST(Coalescer, OrderIsFirstTouch)
{
    std::array<Addr, kWarpSize> addrs{};
    addrs[0] = 0x3080;
    addrs[1] = 0x3000;
    addrs[2] = 0x3080;
    auto lines = coalesce(addrs, 0x7);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x3080u);
    EXPECT_EQ(lines[1], 0x3000u);
}

TEST(Coalescer, DistinctAtomicAddressesKeepLaneOrder)
{
    // A warp atomic on 32 distinct words, out of address order, and 32
    // addresses that differ only in their high bits: one target per lane,
    // in lane order.
    for (const auto &addrs :
         {laneAddrs([](unsigned l) { return 0x8000 + 8 * Addr{l * 7 % 32}; }),
          laneAddrs([](unsigned l) { return 0x40 + (Addr{l} << 40); })}) {
        const Targets targets =
            coalesce(addrs, kFullMask, Granularity::Address);
        ASSERT_EQ(targets.size(), kWarpSize);
        for (unsigned l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(targets[l], addrs[l]) << "lane " << l;
    }
}

TEST(Coalescer, InterleavedRepeatsKeepFirstTouchOrder)
{
    // Lanes cycle through five words, three apart: 0, 3, 1, 4, 2, 0, ...
    // Each word is one target at its first lane; the masked-off lanes
    // 0 and 5 drop word 0's first two touches.
    const auto addrs =
        laneAddrs([](unsigned l) { return 0x100 * Addr{l * 3 % 5} + 0x40; });
    const Targets all = coalesce(addrs, kFullMask, Granularity::Address);
    EXPECT_EQ(std::vector<Addr>(all.begin(), all.end()),
              (std::vector<Addr>{0x40, 0x340, 0x140, 0x440, 0x240}));
    const Targets some =
        coalesce(addrs, kFullMask & ~LaneMask{0x21}, Granularity::Address);
    EXPECT_EQ(std::vector<Addr>(some.begin(), some.end()),
              (std::vector<Addr>{0x340, 0x140, 0x440, 0x240, 0x40}));
    // At line granularity the same lanes touch lines 0x0..0x400.
    const Targets lines = coalesce(addrs, kFullMask);
    EXPECT_EQ(std::vector<Addr>(lines.begin(), lines.end()),
              (std::vector<Addr>{0x0, 0x300, 0x100, 0x400, 0x200}));
}

}  // namespace
}  // namespace bowsim

#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/mem/cache.hpp"

namespace bowsim {
namespace {

CacheConfig
tinyCache()
{
    // 2 sets x 2 ways x 128B lines = 512 B.
    return CacheConfig{512, 2};
}

Addr
lineInSet(unsigned set, unsigned k)
{
    // With 2 sets, line addresses alternate sets every 128 B.
    return static_cast<Addr>((set + 2 * k)) * kLineBytes;
}

TEST(Cache, MissThenHitAfterFill)
{
    Cache c(tinyCache());
    Addr a = lineInSet(0, 0);
    EXPECT_FALSE(c.access(a, false));
    c.fill(a, false, nullptr);
    EXPECT_TRUE(c.access(a, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, ProbeDoesNotTouchLruOrCounters)
{
    Cache c(tinyCache());
    Addr a = lineInSet(0, 0);
    EXPECT_FALSE(c.probe(a));
    c.fill(a, false, nullptr);
    EXPECT_TRUE(c.probe(a));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyCache());
    Addr a = lineInSet(0, 0);
    Addr b = lineInSet(0, 1);
    Addr d = lineInSet(0, 2);
    c.fill(a, false, nullptr);
    c.fill(b, false, nullptr);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(c.access(a, false));
    bool dirty = true;
    bool evicted = c.fill(d, false, &dirty);
    EXPECT_TRUE(evicted);
    EXPECT_FALSE(dirty);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tinyCache());
    Addr a = lineInSet(1, 0);
    Addr b = lineInSet(1, 1);
    Addr d = lineInSet(1, 2);
    c.fill(a, true, nullptr);  // dirty
    c.fill(b, false, nullptr);
    EXPECT_TRUE(c.access(b, false));  // a is LRU and dirty
    bool dirty = false;
    c.fill(d, false, &dirty);
    EXPECT_TRUE(dirty);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(tinyCache());
    Addr a = lineInSet(0, 0);
    Addr b = lineInSet(0, 1);
    Addr d = lineInSet(0, 2);
    c.fill(a, false, nullptr);
    EXPECT_TRUE(c.access(a, true));  // dirty now
    c.fill(b, false, nullptr);
    EXPECT_TRUE(c.access(b, false));
    bool dirty = false;
    c.fill(d, false, &dirty);  // evicts a
    EXPECT_TRUE(dirty);
}

TEST(Cache, RefillOfPresentLineIsIdempotent)
{
    Cache c(tinyCache());
    Addr a = lineInSet(0, 0);
    c.fill(a, false, nullptr);
    bool dirty = true;
    bool evicted = c.fill(a, false, &dirty);
    EXPECT_FALSE(evicted);
    EXPECT_FALSE(dirty);
    EXPECT_TRUE(c.probe(a));
}

TEST(Cache, SetsAreIndependent)
{
    Cache c(tinyCache());
    // Fill set 0 beyond capacity; set 1 lines must be unaffected.
    Addr s1 = lineInSet(1, 0);
    c.fill(s1, false, nullptr);
    for (unsigned k = 0; k < 4; ++k)
        c.fill(lineInSet(0, k), false, nullptr);
    EXPECT_TRUE(c.probe(s1));
}

TEST(Cache, InvalidateAllClearsEverything)
{
    Cache c(tinyCache());
    c.fill(lineInSet(0, 0), false, nullptr);
    c.fill(lineInSet(1, 0), false, nullptr);
    c.invalidateAll();
    EXPECT_FALSE(c.probe(lineInSet(0, 0)));
    EXPECT_FALSE(c.probe(lineInSet(1, 0)));
}

TEST(Cache, ConfigComputesSets)
{
    CacheConfig cfg{16 * 1024, 4};
    EXPECT_EQ(cfg.numSets(), 32u);
    Cache c(cfg);
    EXPECT_EQ(c.numSets(), 32u);
}

TEST(Cache, RejectsDegenerateGeometry)
{
    CacheConfig cfg{64, 4};  // smaller than one line per way
    EXPECT_THROW(Cache c(cfg), FatalError);
}

/** Property: a freshly filled line survives (ways-1) distinct fills. */
class CacheWays : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheWays, MruSurvivesWaysMinusOneFills)
{
    unsigned ways = GetParam();
    CacheConfig cfg{static_cast<std::uint64_t>(ways) * kLineBytes,
                    ways};  // one set
    Cache c(cfg);
    Addr hot = 0;
    c.fill(hot, false, nullptr);
    for (unsigned k = 1; k < ways; ++k) {
        EXPECT_TRUE(c.access(hot, false));  // keep hot line MRU
        c.fill(static_cast<Addr>(k) * kLineBytes, false, nullptr);
        EXPECT_TRUE(c.probe(hot)) << "evicted after fill " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Geometry, CacheWays,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace bowsim

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.hpp"
#include "src/kernels/atm.hpp"
#include "src/kernels/bh_sort.hpp"
#include "src/kernels/bh_tree.hpp"
#include "src/kernels/cp_ds.hpp"
#include "src/kernels/hashtable.hpp"
#include "src/kernels/nw.hpp"
#include "src/kernels/registry.hpp"
#include "src/kernels/syncfree.hpp"
#include "src/kernels/tsp.hpp"

namespace bowsim {
namespace {

GpuConfig
testConfig(SchedulerKind sched = SchedulerKind::GTO, bool bows = false)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 4;
    cfg.scheduler = sched;
    cfg.bows.enabled = bows;
    return cfg;
}

TEST(Kernels, HashtableValidatesHighContention)
{
    Gpu gpu(testConfig());
    HashtableParams p;
    p.insertions = 2048;
    p.buckets = 16;  // heavy contention
    p.ctas = 8;
    p.threadsPerCta = 128;
    auto h = makeHashtable(p);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.lockSuccess, 0u);
    EXPECT_GT(s.outcomes.interWarpFail + s.outcomes.intraWarpFail, 0u);
    EXPECT_EQ(s.outcomes.lockSuccess, p.insertions);
}

TEST(Kernels, HashtableValidatesLowContention)
{
    Gpu gpu(testConfig());
    HashtableParams p;
    p.insertions = 2048;
    p.buckets = 4096;
    p.ctas = 8;
    p.threadsPerCta = 128;
    auto h = makeHashtable(p);
    KernelStats s = h->run(gpu);
    EXPECT_EQ(s.outcomes.lockSuccess, p.insertions);
}

TEST(Kernels, HashtableWithSoftwareDelayValidates)
{
    Gpu gpu(testConfig());
    HashtableParams p;
    p.insertions = 1024;
    p.buckets = 64;
    p.ctas = 4;
    p.threadsPerCta = 128;
    p.delayFactor = 50;
    auto h = makeHashtable(p);
    KernelStats s = h->run(gpu);
    EXPECT_EQ(s.outcomes.lockSuccess, p.insertions);
}

Word
peek(Gpu &gpu, Addr addr)
{
    Word v = 0;
    gpu.memcpyFromDevice(&v, addr, 8);
    return v;
}

void
poke(Gpu &gpu, Addr addr, Word v)
{
    gpu.memcpyToDevice(addr, &v, 8);
}

/** A named set of word writes that breaks one result property. */
struct Corruption {
    std::string name;
    std::vector<std::pair<Addr, Word>> writes;
};

/**
 * Applies each corruption to @p h's validated results in turn: validate()
 * must reject it, and accept again once the words are restored.
 */
void
expectEachCorruptionRejected(Gpu &gpu, const KernelHarness &h,
                             const std::vector<Corruption> &cases)
{
    ASSERT_TRUE(h.validate(gpu));
    for (const Corruption &c : cases) {
        std::vector<std::pair<Addr, Word>> saved;
        for (const auto &[addr, value] : c.writes) {
            saved.emplace_back(addr, peek(gpu, addr));
            poke(gpu, addr, value);
        }
        EXPECT_FALSE(h.validate(gpu)) << c.name;
        for (auto it = saved.rbegin(); it != saved.rend(); ++it)
            poke(gpu, it->first, it->second);
        ASSERT_TRUE(h.validate(gpu)) << "after restoring: " << c.name;
    }
}

TEST(Kernels, HashtableValidatorRejectsEachCorruption)
{
    Gpu gpu(testConfig());
    HashtableParams p;
    p.insertions = 512;
    p.buckets = 16;
    p.ctas = 4;
    p.threadsPerCta = 128;
    auto h = makeHashtable(p);
    (void)h->run(gpu);
    // Params: keys, locks, heads, nodes ({key, next}, 16 bytes each).
    const std::vector<Word> params = h->launches()[0].params;
    const Addr keys = static_cast<Addr>(params[0]);
    const Addr locks = static_cast<Addr>(params[1]);
    const Addr heads = static_cast<Addr>(params[2]);
    const Addr nodes = static_cast<Addr>(params[3]);

    // Bucket 0's chain a0 -> a1 -> ... -> tail, and bucket 1's head b0.
    const auto a0 = static_cast<Addr>(peek(gpu, heads));
    ASSERT_NE(a0, 0u);
    const auto a1 = static_cast<Addr>(peek(gpu, a0 + 8));
    const auto b0 = static_cast<Addr>(peek(gpu, heads + 8));
    ASSERT_NE(a1, 0u);
    ASSERT_NE(b0, 0u);
    Addr tail = a1;
    while (peek(gpu, tail + 8) != 0)
        tail = static_cast<Addr>(peek(gpu, tail + 8));
    const Word key0 = peek(gpu, a0);

    expectEachCorruptionRejected(
        gpu, *h,
        {{"chain cycle", {{tail + 8, static_cast<Word>(a0)}}},
         {"node spliced into another bucket's chain",
          {{heads, static_cast<Word>(a1)},
           {a0 + 8, static_cast<Word>(b0)},
           {heads + 8, static_cast<Word>(a0)}}},
         {"held lock", {{locks + 8 * 5, 1}}},
         {"dropped node", {{heads, static_cast<Word>(a1)}}},
         // The tail's link, so no node is dropped: only the pool check
         // rejects these.
         {"link past the node pool",
          {{tail + 8, static_cast<Word>(nodes + 16 * p.insertions)}}},
         {"link below the node pool", {{tail + 8, static_cast<Word>(keys)}}},
         {"link into the middle of a node",
          {{tail + 8, static_cast<Word>(a0 + 8)}}},
         // Same bucket, so only the node-holds-its-key check sees it.
         {"wrong key in the right bucket", {{a0, key0 + p.buckets}}}});
}

TEST(Kernels, TspValidatorRejectsEachCorruption)
{
    Gpu gpu(testConfig());
    TspParams p;
    p.climbers = 512;
    p.rounds = 2;
    auto h = makeTsp(p);
    (void)h->run(gpu);
    // Params: mutex, best ({cost, index}, 16 bytes).
    const std::vector<Word> params = h->launches()[0].params;
    const Addr mutex = static_cast<Addr>(params[0]);
    const Addr best = static_cast<Addr>(params[1]);
    const Word cost = peek(gpu, best);
    unsigned other = 0;
    while (tspHostCost(p, other) == cost)
        ++other;

    expectEachCorruptionRejected(
        gpu, *h,
        {{"best cost above the minimum", {{best, cost + 1}}},
         {"index whose cost differs", {{best + 8, Word{other}}}},
         {"index past the climbers", {{best + 8, Word{p.climbers}}}},
         {"negative index", {{best + 8, -1}}},
         {"held mutex", {{mutex, 1}}}});
}

TEST(Kernels, TspBatchedReferenceMatchesTheScalarLoop)
{
    // Counts around the batch width, and the default 3000.
    for (unsigned climbers : {1u, 7u, 8u, 9u, 3000u}) {
        TspParams p;
        p.climbers = climbers;
        Word min = tspHostCost(p, 0);
        unsigned argmin = 0;
        for (unsigned t = 1; t < climbers; ++t) {
            const Word c = tspHostCost(p, t);
            if (c < min) {
                min = c;
                argmin = t;
            }
        }
        const TspBest best = tspHostBest(p);
        EXPECT_EQ(best.cost, min) << climbers << " climbers";
        EXPECT_EQ(best.climber, argmin) << climbers << " climbers";
    }
}

TEST(Kernels, AtmConservesMoney)
{
    Gpu gpu(testConfig());
    AtmParams p;
    p.transactions = 2048;
    p.accounts = 128;
    p.ctas = 8;
    p.threadsPerCta = 128;
    auto h = makeAtm(p);
    KernelStats s = h->run(gpu);
    // At least two acquires per transaction; lock1 may be re-acquired
    // each time lock2 fails and forces a release-and-retry.
    EXPECT_GE(s.outcomes.lockSuccess, 2u * p.transactions);
}

TEST(Kernels, TspFindsTheMinimum)
{
    Gpu gpu(testConfig());
    TspParams p;
    p.climbers = 512;
    p.rounds = 2;
    auto h = makeTsp(p);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.lockSuccess, 0u);
}

TEST(Kernels, Nw1MatchesHostReference)
{
    Gpu gpu(testConfig());
    NwParams p;
    p.n = 64;
    auto h = makeNw(p, false);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.waitExitSuccess, 0u);
}

TEST(Kernels, Nw2MatchesHostReference)
{
    Gpu gpu(testConfig());
    NwParams p;
    p.n = 64;
    auto h = makeNw(p, true);
    (void)h->run(gpu);
}

TEST(Kernels, BhTreeBuildsAValidTree)
{
    Gpu gpu(testConfig());
    BhTreeParams p;
    p.bodies = 1500;
    p.ctas = 4;
    p.threadsPerCta = 128;
    auto h = makeBhTree(p);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.lockSuccess, 0u);
}

TEST(Kernels, BhSortSignalsEveryNode)
{
    Gpu gpu(testConfig());
    BhSortParams p;
    p.leaves = 1024;
    p.ctas = 4;
    p.threadsPerCta = 128;
    auto h = makeBhSort(p);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.waitExitSuccess, 0u);
}

TEST(Kernels, CpDsPreservesCoordinateSum)
{
    Gpu gpu(testConfig());
    CpDsParams p;
    p.side = 24;
    p.iterations = 1;
    p.ctas = 4;
    p.threadsPerCta = 128;
    auto h = makeCpDs(p);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.outcomes.lockSuccess, 0u);
}

class SyncFreeKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(SyncFreeKernels, ValidatesAndHasNoLockTraffic)
{
    Gpu gpu(testConfig());
    auto h = makeBenchmark(GetParam(), 0.25);
    KernelStats s = h->run(gpu);
    EXPECT_EQ(s.outcomes.lockSuccess, 0u);
    EXPECT_EQ(s.outcomes.interWarpFail, 0u);
    EXPECT_GT(s.warpInstructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, SyncFreeKernels,
                         ::testing::Values("VEC", "KM", "MS", "HL", "RED",
                                           "STEN"),
                         [](const auto &info) { return info.param; });

/** Every sync kernel must validate under every scheduler, with and
 *  without BOWS — BOWS must never change functional results. */
class SyncKernelMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, SchedulerKind, bool>> {};

TEST_P(SyncKernelMatrix, Validates)
{
    const auto &[name, sched, bows] = GetParam();
    Gpu gpu(testConfig(sched, bows));
    auto h = makeBenchmark(name, 0.2);
    KernelStats s = h->run(gpu);
    EXPECT_GT(s.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    All, SyncKernelMatrix,
    ::testing::Combine(::testing::Values("HT", "ATM", "TSP", "NW1", "NW2",
                                         "TB", "ST", "DS"),
                       ::testing::Values(SchedulerKind::LRR,
                                         SchedulerKind::GTO,
                                         SchedulerKind::CAWA),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               toString(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_BOWS" : "_base");
    });

// --- registry ---------------------------------------------------------

TEST(Registry, UnknownBenchmarkErrorListsKnownNames)
{
    try {
        makeBenchmark("definitely_not_a_kernel", 1.0);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("definitely_not_a_kernel"),
                  std::string::npos);
        EXPECT_NE(what.find("HT"), std::string::npos);
        EXPECT_NE(what.find("STEN"), std::string::npos);
    }
}

/** The FatalError message makeBenchmark(@p name, 1.0, @p params) throws. */
std::string
overrideError(const std::string &name, const KernelParams &params)
{
    try {
        makeBenchmark(name, 1.0, params);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << name << ": overrides accepted";
    return "";
}

TEST(Registry, OverridesAreValidated)
{
    const char *ht_keys = "insertions buckets ctas threadsPerCta delayFactor";

    const std::string unknown = overrideError("HT", {{"accounts", 1000}});
    EXPECT_NE(unknown.find("unknown override accounts"), std::string::npos)
        << unknown;
    EXPECT_NE(unknown.find(ht_keys), std::string::npos) << unknown;

    // No other kernel takes overrides, not even a key HT accepts.
    const std::string tb = overrideError("TB", {{"buckets", 64}});
    EXPECT_NE(tb.find("'TB'"), std::string::npos) << tb;
    EXPECT_NE(tb.find("accepted keys: none"), std::string::npos) << tb;

    // HashtableParams fields are unsigned.
    const std::int64_t too_big =
        std::int64_t{std::numeric_limits<unsigned>::max()} + 1;
    for (std::int64_t bad : {std::int64_t{-1}, too_big}) {
        const std::string range = overrideError("HT", {{"buckets", bad}});
        EXPECT_NE(range.find("out-of-range override buckets"),
                  std::string::npos)
            << range;
        EXPECT_NE(range.find(ht_keys), std::string::npos) << range;
    }

    // The upper bound itself fits, and a misspelled kernel still reports
    // the known names rather than the accepted keys.
    EXPECT_NO_THROW(makeBenchmark(
        "HT", 1.0, {{"delayFactor", std::numeric_limits<unsigned>::max()}}));
    const std::string typo = overrideError("Ht", {{"buckets", 64}});
    EXPECT_NE(typo.find("unknown benchmark 'Ht'"), std::string::npos)
        << typo;
}

}  // namespace
}  // namespace bowsim

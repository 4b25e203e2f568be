#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_common.hpp"

/**
 * The shared bench flag parser (docs/BENCH.md): numeric values are
 * whole numbers in range, --scale a positive finite number, and
 * anything else is a usage error (exit 2) naming the flag. The death
 * tests reach the parser alone, so a value that would once have
 * wrapped (a negative core count) never gets near a simulation.
 */

namespace bowsim {
namespace {

using bench::BenchOptions;
using bench::parseOptions;
using bench::parseScale;
using bench::parseWhole;

BenchOptions
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return parseOptions(static_cast<int>(args.size()),
                        const_cast<char **>(args.data()));
}

TEST(BenchOptions, ReadsWholeNumbersAndKeepsZeroMeaningDefault)
{
    const BenchOptions o =
        parse({"--scale=0.25", "--cores=0", "--devices=2", "--jobs=3",
               "--metrics-interval=0"});
    EXPECT_DOUBLE_EQ(o.scale, 0.25);
    EXPECT_EQ(o.cores, 0u);
    EXPECT_EQ(o.devices, 2u);
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_EQ(o.metricsInterval, 0u);
    EXPECT_EQ(parseWhole("--x", "4294967295"), 4294967295u);
    EXPECT_EQ(parseWhole("--x", "18446744073709551615", 1, kNeverCycle),
              kNeverCycle);
}

TEST(BenchOptionsDeathTest, RejectsValuesThatAreNotWholeNumbers)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "", "-3", "+3", " 3", "3x", "1.5",
                            "4294967296", "99999999999999999999999"}) {
        EXPECT_EXIT(parseWhole("--cores", bad),
                    ::testing::ExitedWithCode(2), "--cores")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseWhole("--iters", "0", 1),
                ::testing::ExitedWithCode(2), "--iters");
    EXPECT_EXIT(parse({"--jobs=abc"}), ::testing::ExitedWithCode(2),
                "--jobs");
    EXPECT_EXIT(parse({"--metrics-interval=-1"}),
                ::testing::ExitedWithCode(2), "--metrics-interval");
}

TEST(BenchOptionsDeathTest, ScaleMustBeAPositiveFiniteNumber)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "", "0", "-0.5", "inf", "nan", "1e999",
                            "0.5x"}) {
        EXPECT_EXIT(parseScale(bad), ::testing::ExitedWithCode(2),
                    "--scale")
            << "'" << bad << "'";
    }
    EXPECT_DOUBLE_EQ(parseScale("1e-3"), 1e-3);
}

}  // namespace
}  // namespace bowsim

/**
 * Figure 3: software back-off delay on GPUs. The HT kernel is augmented
 * with the clock()-polling delay code of Fig. 3a (delay grows with the
 * CTA index). On real GPUs — and here — the delay code itself burns
 * issue slots, so it only pays off at very high contention, if at all.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 3: HT execution time (ms) with software back-off "
                "delays (Pascal)");
    const std::vector<unsigned> factors = {0, 50, 100, 500, 1000};
    const std::vector<unsigned> buckets = {128, 256, 512, 1024, 2048,
                                           4096};
    std::printf("%-8s", "buckets");
    for (unsigned f : factors)
        std::printf("  delay=%-6u", f);
    std::printf("\n");

    Sweep sweep;
    sweep.name = "fig03_sw_backoff";
    for (unsigned b : buckets) {
        for (unsigned f : factors) {
            GpuConfig cfg = makeGtx1080TiConfig();
            applyCores(opts, cfg);
            cfg.bows.enabled = false;
            sweep.add(
                "HT/" + std::to_string(b) + "/d" + std::to_string(f), "HT",
                cfg, 1.0,
                {{"insertions",
                  static_cast<std::int64_t>(16384 * opts.scale)},
                 {"buckets", b},
                 {"ctas", 30},
                 {"threadsPerCta", 256},
                 {"delayFactor", f}});
        }
    }

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    const double clock_mhz = makeGtx1080TiConfig().coreClockMhz;
    for (size_t i = 0; i < buckets.size(); ++i) {
        std::printf("%-8u", buckets[i]);
        for (size_t j = 0; j < factors.size(); ++j)
            std::printf("  %-12.4f",
                        results[i * factors.size() + j]
                            .stats.milliseconds(clock_mhz));
        std::printf("\n");
    }
    return 0;
}

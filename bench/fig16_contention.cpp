/**
 * Figure 16: BOWS sensitivity to contention on the hashtable — (a)
 * speedup of GTO+BOWS over GTO as bucket count varies, (b) dynamic
 * instruction count normalized to GTO, alongside an "ideal blocking"
 * instruction count: what a perfect queuing lock (an idealized HQL [36])
 * would execute, i.e., every acquire succeeds on its first attempt.
 * The gap between BOWS and ideal-blocking shrinks as buckets grow.
 */
#include "bench/bench_common.hpp"

using namespace bowsim;
using namespace bowsim::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv, 1.0);
    printHeader("Figure 16: HT contention sweep (GTO vs GTO+BOWS "
                "adaptive)");
    std::printf("%-8s %9s %12s %14s %16s\n", "buckets", "speedup",
                "bows_insts", "ideal_insts", "bows_fail_per_ok");

    const std::vector<unsigned> buckets = {128, 256, 512, 1024, 2048,
                                           4096};
    Sweep sweep;
    sweep.name = "fig16_contention";
    for (unsigned b : buckets) {
        for (int bows = 0; bows < 2; ++bows) {
            GpuConfig cfg = makeGtx480Config();
            applyCores(opts, cfg);
            cfg.scheduler = SchedulerKind::GTO;
            cfg.bows.enabled = bows != 0;
            sweep.add("HT/" + std::to_string(b) + (bows ? "/BOWS" : "/GTO"),
                      "HT", cfg, 1.0,
                      {{"insertions",
                        static_cast<std::int64_t>(24576 * opts.scale)},
                       {"buckets", b},
                       {"ctas", 30},
                       {"threadsPerCta", 256}});
        }
    }

    const std::vector<SweepResult> results = runSweep(opts, sweep);
    for (size_t i = 0; i < buckets.size(); ++i) {
        const KernelStats &base = results[i * 2].stats;
        const KernelStats &bows = results[i * 2 + 1].stats;
        // Ideal blocking: each successful acquire costs exactly one
        // sync-region iteration; all retry iterations disappear.
        double sync_per_success =
            base.outcomes.total() == 0
                ? 0.0
                : static_cast<double>(base.syncThreadInstructions) /
                      base.outcomes.total();
        double ideal = static_cast<double>(base.threadInstructions) -
                       static_cast<double>(base.syncThreadInstructions) +
                       sync_per_success * base.outcomes.lockSuccess;
        double fails = static_cast<double>(bows.outcomes.interWarpFail +
                                           bows.outcomes.intraWarpFail);
        std::printf("%-8u %9.3f %12.3f %14.3f %16.2f\n", buckets[i],
                    static_cast<double>(base.cycles) / bows.cycles,
                    static_cast<double>(bows.threadInstructions) /
                        base.threadInstructions,
                    ideal / base.threadInstructions,
                    bows.outcomes.lockSuccess
                        ? fails / bows.outcomes.lockSuccess
                        : 0.0);
    }
    return 0;
}
